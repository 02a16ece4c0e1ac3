package isa

// Compilation memoization. The pseudo-GCN compiler is deterministic and its
// outputs are immutable once built — Allocate, Listing, CodeBytes and
// CountUnit only read the Program — so compilation is cached process-wide:
// one compiled kernel per comparer variant (programs are device-independent)
// plus the finder, a fixed six entries. Nothing a caller passes beyond the
// variant keys the cache: a Metrics row is the occupancy rule applied to a
// cached kernel for one (device spec, pattern length, work-group size) and
// is recomputed on every call, so a daemon whose requests choose the
// pattern length cannot grow it.
//
// Callers of CompileComparer/CompileFinder receive the shared cached
// Program and must treat it as read-only.

import (
	"sync"
	"sync/atomic"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// DefaultWorkGroupSize is the work-group size the plain Metrics entry
// points assume — the SYCL program's 256-item groups (§IV.A).
const DefaultWorkGroupSize = 256

// compiled is one kernel as the cache keeps it: the program and everything
// a Metrics row reports that does not depend on the launch context.
type compiled struct {
	variant   kernels.ComparerVariant // kernels.Base for the finder
	prog      *Program
	demand    RegDemand
	codeBytes int
	ldsInsts  int
	vmemInsts int
}

var cache = struct {
	mu       sync.Mutex
	comparer map[kernels.ComparerVariant]*compiled
	finder   *compiled
}{
	comparer: make(map[kernels.ComparerVariant]*compiled),
}

// compileCount counts actual compiler invocations — cache misses, not
// CompileComparer/CompileFinder calls — for the recompilation regression
// test. Memoization keeps it bounded by the number of distinct kernels (the
// comparer variants plus the finder), however many engines or tuner passes
// have been constructed.
var compileCount atomic.Int64

// analyze records a freshly emitted program as a cache entry.
func analyze(v kernels.ComparerVariant, p *Program) *compiled {
	compileCount.Add(1)
	return &compiled{
		variant:   v,
		prog:      p,
		demand:    Allocate(p),
		codeBytes: p.CodeBytes(),
		ldsInsts:  p.CountUnit(LDS),
		vmemInsts: p.CountUnit(VMEM),
	}
}

func compiledComparer(v kernels.ComparerVariant) *compiled {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	c, ok := cache.comparer[v]
	if !ok {
		p := emitComparer(kernels.ComparerKernelName(v), configFor(v))
		if v >= kernels.Opt1 {
			p = EliminateGuardedReloads(p)
		}
		c = analyze(v, p)
		cache.comparer[v] = c
	}
	return c
}

func compiledFinder() *compiled {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if cache.finder == nil {
		cache.finder = analyze(kernels.Base, emitFinder())
	}
	return cache.finder
}

// metrics is the kernel's Table X row in one launch context: ldsBytes of
// shared local memory per wg-item group on spec, with extra registers (the
// arena claim's, or none) added to the compiled demand.
func (c *compiled) metrics(spec device.Spec, ldsBytes, wg int, extra RegDemand) Metrics {
	if wg <= 0 {
		wg = DefaultWorkGroupSize
	}
	sgprs, vgprs := c.demand.SGPRs+extra.SGPRs, c.demand.VGPRs+extra.VGPRs
	return Metrics{
		Variant:   c.variant,
		CodeBytes: c.codeBytes,
		SGPRs:     sgprs,
		VGPRs:     vgprs,
		Occupancy: spec.Occupancy(device.KernelResources{
			VGPRs:         vgprs,
			SGPRs:         sgprs,
			LDSBytesPerWG: ldsBytes,
			WorkGroupSize: wg,
		}),
		LDSInsts:  c.ldsInsts,
		VMEMInsts: c.vmemInsts,
	}
}
