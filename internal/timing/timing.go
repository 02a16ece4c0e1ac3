// Package timing is the analytic performance model of the reproduction: it
// converts the access statistics a simulated kernel launch produces
// (internal/gpu.Stats) plus a device specification (Table VII) into
// estimated execution time, and models the host side of the Cas-OFFinder
// pipeline (chunk staging, transfers, result collection) so full elapsed
// times can be reported.
//
// The model is a calibrated roofline with latency terms:
//
//		T_kernel = max(T_compute, T_bandwidth) + T_latency + T_leader + T_group
//
//	  - T_compute: ALU, branch and LDS work at the device's issue rate;
//	  - T_bandwidth: global traffic against peak bandwidth, with scattered
//	    loads charged an effective transaction size;
//	  - T_latency: dependent global loads limited by the memory-level
//	    parallelism the achieved occupancy sustains — this term makes
//	    occupancy matter, reproducing the opt4 regression of Fig. 2, and is
//	    scaled by a register-pressure penalty once a kernel's VGPR demand
//	    exceeds the pressure knee;
//	  - T_leader: the serialised shared-local-memory staging performed by
//	    work-group leaders (removed by the cooperative fetch of opt3);
//	  - T_group: per-work-group dispatch overhead, which penalises the
//	    runtime-chosen 64-item groups of the OpenCL program against the
//	    SYCL program's 256 (the Table VIII gap).
//
// Absolute constants are calibrated so full-genome projections land at the
// paper's scale (tens of seconds per assembly); the reproduced quantities
// are the ratios (SYCL/OpenCL speedups, opt1-opt4 deltas).
package timing

import (
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

// Model constants (calibrated; see package comment).
const (
	cyclesPerALU      = 1.0
	cyclesPerBranch   = 1.5
	cyclesPerLDSRead  = 2.0
	cyclesPerLDSWrite = 2.0
	cyclesPerBarrier  = 32.0

	// loadTransactionBytes charges each scattered global load an effective
	// line fraction (candidate sites share cache lines only partially).
	loadTransactionBytes = 16.0
	// constantLoadBytes: uniform constant fetches broadcast across a wave
	// and hit the constant cache.
	constantLoadBytes = 0.5
	// bandwidthEfficiency derates peak HBM bandwidth.
	bandwidthEfficiency = 0.75

	// missesPerWave is the effective memory-level parallelism one resident
	// wave sustains for scattered accesses. It is far below 1 because a
	// diverged wave's scattered load fans out into up to 64 distinct cache
	// lines that the memory system drains with limited parallelism;
	// calibrated so full-genome comparer projections land at the paper's
	// scale.
	missesPerWave = 0.048
	// redundantLoadFactor discounts reloads of already-fetched addresses:
	// they hit L1/L2 instead of DRAM.
	redundantLoadFactor = 0.3
	// cyclesPerAtomic charges global atomics at the L2 combining
	// throughput (one per CU per this many cycles): single-counter
	// increments coalesce in the cache, they do not pay DRAM latency.
	cyclesPerAtomic = 32.0

	// pressureKneeVGPRs and pressureSlope model scheduler/register-bank
	// stalls once vector-register demand exceeds the knee: the latency
	// term is multiplied by 1 + slope*(VGPRs-knee). Calibrated against the
	// near-2x opt4 regression of Fig. 2.
	pressureKneeVGPRs = 66
	pressureSlope     = 0.0444

	// groupLaunchCycles is the per-work-group dispatch cost.
	groupLaunchCycles = 5000.0
)

// KernelConfig carries the launch context the Stats record alone does not:
// which device ran, at what occupancy and register pressure (from
// internal/isa for the comparer variants), and whether shared-local staging
// was serialised on the group leader.
type KernelConfig struct {
	Spec device.Spec
	// OccupancyWaves is the achieved waves per SIMD (1..MaxWavesPerSIMD).
	OccupancyWaves int
	// VGPRs is the kernel's vector-register demand, for the pressure term.
	VGPRs int
	// WorkGroupSize is the launch local size.
	WorkGroupSize int
	// LeaderPrefetch marks kernels whose local-memory staging is done by
	// the group leader alone (finder, and comparer before opt3).
	LeaderPrefetch bool
	// PrefetchOpsPerGroup is the number of staging loads per work-group.
	PrefetchOpsPerGroup int
	// ScatterFactor scales the cost of global loads by their access
	// pattern: 1.0 for the comparer's scattered site reads, near 0 for the
	// finder's perfectly coalesced sequential scan (adjacent work-items
	// read adjacent bytes). This is why the comparer dominates kernel time
	// (~98%, §IV.B) despite similar operation counts.
	ScatterFactor float64
	// WaveSlots, when positive, overrides OccupancyWaves with a fractional
	// effective wave count: the resource-limited occupancy corrected for
	// work-group wave-slot granularity and partial-wave lane fill (see
	// effectiveWaves). ChunkEstimate fills it from WorkGroupSize.
	WaveSlots float64
}

// FinderConfig is the finder's launch context on spec: the pattern staged
// by the group leader (4 loads per base: codes and index, both strands) and
// a perfectly coalesced sequential scan.
func FinderConfig(spec device.Spec, occupancy, vgprs, wg, plen int) KernelConfig {
	c := ComparerConfig(spec, occupancy, vgprs, wg, plen, true)
	c.ScatterFactor = 0.02
	return c
}

// ComparerConfig is a comparer variant's launch context on spec: the same
// staging traffic, leader-only before opt3, and scattered candidate-site
// reads.
func ComparerConfig(spec device.Spec, occupancy, vgprs, wg, plen int, leaderPrefetch bool) KernelConfig {
	return KernelConfig{
		Spec:                spec,
		OccupancyWaves:      occupancy,
		VGPRs:               vgprs,
		WorkGroupSize:       wg,
		LeaderPrefetch:      leaderPrefetch,
		PrefetchOpsPerGroup: 4 * plen,
		ScatterFactor:       1.0,
	}
}

func (c KernelConfig) scatter() float64 {
	if c.ScatterFactor <= 0 {
		return 1.0
	}
	return c.ScatterFactor
}

func (c KernelConfig) occupancy() float64 {
	if c.WaveSlots > 0 {
		return c.WaveSlots
	}
	occ := c.OccupancyWaves
	if occ <= 0 {
		occ = c.Spec.MaxWavesPerSIMD
	}
	return float64(occ)
}

// withEffectiveWaves returns c with WaveSlots derived from its integral
// occupancy and work-group size, unless the caller already set it.
func (c KernelConfig) withEffectiveWaves() KernelConfig {
	if c.WaveSlots <= 0 {
		c.WaveSlots = effectiveWaves(c.Spec, c.OccupancyWaves, c.WorkGroupSize)
	}
	return c
}

// Breakdown decomposes one kernel-time estimate into its model terms.
type Breakdown struct {
	Compute   float64
	Bandwidth float64
	Latency   float64
	Leader    float64
	Group     float64
}

// Total composes the terms: max(compute, bandwidth) + latency + leader +
// group.
func (b Breakdown) Total() float64 {
	roof := b.Compute
	if b.Bandwidth > roof {
		roof = b.Bandwidth
	}
	return roof + b.Latency + b.Leader + b.Group
}

// KernelSeconds estimates the kernel execution time in seconds.
func KernelSeconds(cfg KernelConfig, s *gpu.Stats) float64 {
	return KernelBreakdown(cfg, s).Total()
}

// KernelBreakdown estimates the kernel time term by term.
func KernelBreakdown(cfg KernelConfig, s *gpu.Stats) Breakdown {
	spec := cfg.Spec
	clock := spec.ClockHz()
	lanes := float64(spec.Cores)
	cus := float64(spec.ComputeUnits())
	occ := cfg.occupancy()

	// Compute roof: ALU + branches + LDS, issued across all lanes.
	computeCycles := float64(s.ALUOps)*cyclesPerALU +
		float64(s.Branches)*cyclesPerBranch +
		float64(s.LocalLoadOps)*cyclesPerLDSRead +
		float64(s.LocalStoreOps)*cyclesPerLDSWrite +
		float64(s.Barriers)*cyclesPerBarrier
	tCompute := computeCycles / (lanes * clock)

	// Bandwidth roof: scattered loads are charged an effective
	// transaction, stores their bytes, constant fetches almost nothing.
	uniqueLoads := float64(s.GlobalLoadOps - s.RedundantLoadOps)
	effBytes := (uniqueLoads+redundantLoadFactor*float64(s.RedundantLoadOps))*loadTransactionBytes*cfg.scatter() +
		float64(s.GlobalStoreBytes) +
		float64(s.AtomicOps)*loadTransactionBytes +
		float64(s.ConstantLoadOps)*constantLoadBytes
	tBandwidth := effBytes / (spec.PeakBWGBs * 1e9 * bandwidthEfficiency)

	// Latency term: dependent misses limited by memory-level parallelism.
	mlp := cus * float64(spec.SIMDsPerCU) * occ * missesPerWave
	latencyOps := (uniqueLoads + redundantLoadFactor*float64(s.RedundantLoadOps)) * cfg.scatter()
	pressure := 1.0
	if cfg.VGPRs > pressureKneeVGPRs {
		pressure += pressureSlope * float64(cfg.VGPRs-pressureKneeVGPRs)
	}
	tLatency := latencyOps*float64(spec.MemLatencyCycles)*pressure/(clock*mlp) +
		float64(s.AtomicOps)*cyclesPerAtomic/(clock*cus)

	// Leader staging: serialised dependent loads on one lane per group
	// while the rest of the group idles at the barrier; the penalty factor
	// covers the uncached staging reads and the serialised LDS writes.
	const ldsStagingPenalty = 8.0
	var tLeader float64
	if cfg.LeaderPrefetch && s.WorkGroups > 0 {
		serialCycles := float64(s.WorkGroups) * float64(cfg.PrefetchOpsPerGroup) *
			float64(spec.MemLatencyCycles) * ldsStagingPenalty
		tLeader = serialCycles / (clock * cus * float64(spec.SIMDsPerCU) * occ)
	}

	// Dispatch overhead per group.
	tGroup := float64(s.WorkGroups) * groupLaunchCycles / (clock * cus)

	return Breakdown{
		Compute:   tCompute,
		Bandwidth: tBandwidth,
		Latency:   tLatency,
		Leader:    tLeader,
		Group:     tGroup,
	}
}

// Host-side model constants.
const (
	// hostStageBytesPerSec covers reading a chunk out of the parsed
	// assembly, case-folding it and preparing the staging buffer.
	hostStageBytesPerSec = 0.21e9
	// pcieBytesPerSec is the host-device interconnect rate.
	pcieBytesPerSec = 12e9
	// hostPerChunkSec is fixed per-chunk overhead (buffer management,
	// kernel argument setup, queue round-trips).
	hostPerChunkSec = 120e-6
	// hostPerEntrySec covers collecting one result entry, re-deriving its
	// site sequence and formatting the output line.
	hostPerEntrySec = 1.1e-6
)

// HostCounters summarise the host side of one run (from search.Profile).
type HostCounters struct {
	BytesStaged int64
	BytesRead   int64
	Chunks      int64
	Entries     int64
}

// HostSeconds estimates the non-kernel part of the elapsed time: staging,
// transfers in both directions, per-chunk overhead and result collection.
func HostSeconds(h HostCounters) float64 {
	return float64(h.BytesStaged)/hostStageBytesPerSec +
		float64(h.BytesStaged+h.BytesRead)/pcieBytesPerSec +
		float64(h.Chunks)*hostPerChunkSec +
		float64(h.Entries)*hostPerEntrySec
}

// ScaleStats linearly scales every counter of s by f, projecting a run on a
// scaled-down synthetic assembly to the full-size one it models.
func ScaleStats(s gpu.Stats, f float64) gpu.Stats {
	scale := func(v int64) int64 { return int64(float64(v) * f) }
	return gpu.Stats{
		WorkItems:         scale(s.WorkItems),
		WorkGroups:        scale(s.WorkGroups),
		GlobalLoadOps:     scale(s.GlobalLoadOps),
		GlobalLoadBytes:   scale(s.GlobalLoadBytes),
		RedundantLoadOps:  scale(s.RedundantLoadOps),
		GlobalStoreOps:    scale(s.GlobalStoreOps),
		GlobalStoreBytes:  scale(s.GlobalStoreBytes),
		ConstantLoadOps:   scale(s.ConstantLoadOps),
		LocalLoadOps:      scale(s.LocalLoadOps),
		LocalStoreOps:     scale(s.LocalStoreOps),
		AtomicOps:         scale(s.AtomicOps),
		Barriers:          scale(s.Barriers),
		ALUOps:            scale(s.ALUOps),
		Branches:          scale(s.Branches),
		DivergentBranches: scale(s.DivergentBranches),
	}
}

// ScaleHost linearly scales host counters by f.
func ScaleHost(h HostCounters, f float64) HostCounters {
	return HostCounters{
		BytesStaged: int64(float64(h.BytesStaged) * f),
		BytesRead:   int64(float64(h.BytesRead) * f),
		Chunks:      int64(float64(h.Chunks) * f),
		Entries:     int64(float64(h.Entries) * f),
	}
}
