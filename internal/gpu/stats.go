package gpu

import (
	"fmt"
	"sync/atomic"
)

// Stats aggregates the observable work of one kernel launch. Kernels report
// their memory traffic and instruction mix through the counting hooks below
// — per access from a loop over a group's work-items (Group.Stats is the
// worker's shard), or once per work-group from a cost plan priced with the
// same hooks; the executor merges the per-worker shards into one record per
// launch. The timing model (internal/timing) turns a Stats record plus a
// device spec and an occupancy into estimated kernel time.
type Stats struct {
	// Launch shape.
	WorkItems  int64
	WorkGroups int64

	// Device global memory traffic, split into operations (transactions
	// before coalescing) and bytes.
	GlobalLoadOps   int64
	GlobalLoadBytes int64
	// RedundantLoadOps is the subset of GlobalLoadOps that re-read an
	// address already fetched by the same work-item (the reloads a
	// compiler emits without __restrict or explicit registering); they hit
	// the cache hierarchy rather than DRAM.
	RedundantLoadOps int64
	GlobalStoreOps   int64
	GlobalStoreBytes int64

	// Constant-memory reads (broadcast-friendly, cheap when uniform).
	ConstantLoadOps int64

	// Shared local memory traffic.
	LocalLoadOps  int64
	LocalStoreOps int64

	// Atomic read-modify-write operations on global memory.
	AtomicOps int64

	// Work-group barrier executions (per work-item).
	Barriers int64

	// ALU operations explicitly accounted by kernel bodies (comparisons,
	// address arithmetic bundles).
	ALUOps int64

	// Branches and the subset whose outcome diverged within a wavefront
	// (approximated by the kernel body's own accounting).
	Branches          int64
	DivergentBranches int64
}

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	s.WorkItems += o.WorkItems
	s.WorkGroups += o.WorkGroups
	s.GlobalLoadOps += o.GlobalLoadOps
	s.GlobalLoadBytes += o.GlobalLoadBytes
	s.RedundantLoadOps += o.RedundantLoadOps
	s.GlobalStoreOps += o.GlobalStoreOps
	s.GlobalStoreBytes += o.GlobalStoreBytes
	s.ConstantLoadOps += o.ConstantLoadOps
	s.LocalLoadOps += o.LocalLoadOps
	s.LocalStoreOps += o.LocalStoreOps
	s.AtomicOps += o.AtomicOps
	s.Barriers += o.Barriers
	s.ALUOps += o.ALUOps
	s.Branches += o.Branches
	s.DivergentBranches += o.DivergentBranches
}

// AddScaled accumulates n times o into s: the work of n work-items that
// each accrued exactly o.
func (s *Stats) AddScaled(o *Stats, n int64) {
	s.WorkItems += n * o.WorkItems
	s.WorkGroups += n * o.WorkGroups
	s.GlobalLoadOps += n * o.GlobalLoadOps
	s.GlobalLoadBytes += n * o.GlobalLoadBytes
	s.RedundantLoadOps += n * o.RedundantLoadOps
	s.GlobalStoreOps += n * o.GlobalStoreOps
	s.GlobalStoreBytes += n * o.GlobalStoreBytes
	s.ConstantLoadOps += n * o.ConstantLoadOps
	s.LocalLoadOps += n * o.LocalLoadOps
	s.LocalStoreOps += n * o.LocalStoreOps
	s.AtomicOps += n * o.AtomicOps
	s.Barriers += n * o.Barriers
	s.ALUOps += n * o.ALUOps
	s.Branches += n * o.Branches
	s.DivergentBranches += n * o.DivergentBranches
}

func (s *Stats) String() string {
	return fmt.Sprintf(
		"items=%d groups=%d gld=%d(%dB) gst=%d(%dB) cld=%d lld=%d lst=%d atom=%d barrier=%d alu=%d br=%d/%d",
		s.WorkItems, s.WorkGroups,
		s.GlobalLoadOps, s.GlobalLoadBytes, s.GlobalStoreOps, s.GlobalStoreBytes,
		s.ConstantLoadOps, s.LocalLoadOps, s.LocalStoreOps,
		s.AtomicOps, s.Barriers, s.ALUOps, s.DivergentBranches, s.Branches)
}

// Counting hooks. Kernel code calls these alongside its ordinary Go memory
// accesses so the launch Stats reflect the traffic a real device would see;
// the optimization variants of the comparer kernel differ mainly in which of
// these they execute.

// LoadGlobal accounts one global-memory read of n bytes.
func (s *Stats) LoadGlobal(n int) {
	s.GlobalLoadOps++
	s.GlobalLoadBytes += int64(n)
}

// StoreGlobal accounts one global-memory write of n bytes.
func (s *Stats) StoreGlobal(n int) {
	s.GlobalStoreOps++
	s.GlobalStoreBytes += int64(n)
}

// LoadGlobalRedundant accounts one global read that re-fetches an address
// this work-item already loaded (served from cache on a real device).
func (s *Stats) LoadGlobalRedundant(n int) {
	s.LoadGlobal(n)
	s.RedundantLoadOps++
}

// LoadLocalN accounts n shared-local-memory reads.
func (s *Stats) LoadLocalN(n int) { s.LocalLoadOps += int64(n) }

// StoreLocalN accounts n shared-local-memory writes.
func (s *Stats) StoreLocalN(n int) { s.LocalStoreOps += int64(n) }

// LoadConstant accounts one constant-memory read.
func (s *Stats) LoadConstant() { s.ConstantLoadOps++ }

// LoadLocal accounts one shared-local-memory read.
func (s *Stats) LoadLocal() { s.LocalLoadOps++ }

// StoreLocal accounts one shared-local-memory write.
func (s *Stats) StoreLocal() { s.LocalStoreOps++ }

// ALU accounts n arithmetic operations.
func (s *Stats) ALU(n int) { s.ALUOps += int64(n) }

// Branch accounts one branch; diverged marks intra-wavefront divergence.
func (s *Stats) Branch(diverged bool) {
	s.Branches++
	if diverged {
		s.DivergentBranches++
	}
}

// AtomicIncUint32 performs the atomic increment of Table V — the only
// atomic the application's kernels use — returning the previous value. The
// update is a real atomic on host memory, so work-groups running on
// different workers get unique slots exactly as on a device.
func (s *Stats) AtomicIncUint32(p *uint32) uint32 { return s.AtomicAddUint32(p, 1) }

// AtomicAddUint32 adds delta and returns the previous value.
func (s *Stats) AtomicAddUint32(p *uint32, delta uint32) uint32 {
	s.AtomicOps++
	return atomic.AddUint32(p, delta) - delta
}

// AtomicLoadUint32 performs an atomic read; the hit-buffer arena's claim
// protocol reads the group's published page with it.
func (s *Stats) AtomicLoadUint32(p *uint32) uint32 {
	s.AtomicOps++
	return atomic.LoadUint32(p)
}

// AtomicStoreUint32 performs an atomic write; the arena's claiming item
// publishes the group's page with it.
func (s *Stats) AtomicStoreUint32(p *uint32, v uint32) {
	s.AtomicOps++
	atomic.StoreUint32(p, v)
}
