package isa

import (
	"sync"
	"testing"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// TestCompileMemoized: compilation results are shared — repeated
// CompileComparer/CompileFinder calls and metrics queries across devices
// and work-group sizes must not re-run the compiler. The process-wide
// compile count stays bounded by the number of distinct kernels (five
// comparer variants plus the finder) no matter how many engines or tuner
// passes preceded this test.
func TestCompileMemoized(t *testing.T) {
	// Engines opening at once may race the first compile of each kernel
	// from several goroutines, and all must get the one program.
	var wg sync.WaitGroup
	progs := make([][]*Program, 4)
	for g := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[g] = append(progs[g], CompileFinder())
			for _, v := range kernels.Variants() {
				progs[g] = append(progs[g], CompileComparer(v))
			}
		}()
	}
	wg.Wait()
	for g := range progs {
		for i, p := range progs[g] {
			if p != progs[0][i] {
				t.Errorf("goroutine %d compiled its own kernel %d", g, i)
			}
		}
	}
	p1 := CompileComparer(kernels.Opt3)
	p2 := CompileComparer(kernels.Opt3)
	if p1 != p2 {
		t.Error("CompileComparer(Opt3) returned distinct programs; memoization lost")
	}
	if f1, f2 := CompileFinder(), CompileFinder(); f1 != f2 {
		t.Error("CompileFinder returned distinct programs; memoization lost")
	}
	for _, v := range kernels.Variants() {
		CompileComparer(v)
	}
	warm := compileCount.Load()
	if limit := int64(len(kernels.Variants()) + 1); warm > limit {
		t.Errorf("compile count %d exceeds the %d distinct kernels", warm, limit)
	}

	// Every metrics row at every (device, wg, pattern length) must come from
	// the cached programs: zero additional compilations. These are the
	// entry points the tuner calls for each request shape.
	for _, spec := range device.All() {
		for _, wg := range []int{64, 128, 256, 512} {
			for _, plen := range []int{1, 20, 23, 64, 2000} {
				finderMetricsAt(spec, plen, wg)
				FinderMetricsArenaAt(spec, plen, wg)
				for _, v := range kernels.Variants() {
					ComparerMetricsAt(v, spec, plen, wg)
					ComparerMetricsArenaAt(v, spec, plen, wg)
				}
			}
		}
	}
	if got := compileCount.Load(); got != warm {
		t.Errorf("metrics queries recompiled kernels: compile count %d -> %d", warm, got)
	}
}

// TestMetricsAtMatchesDefault: the wg-parameterised entry points at the
// default 256-item group reproduce the plain Table X rows exactly.
func TestMetricsAtMatchesDefault(t *testing.T) {
	spec := device.RadeonVII()
	for _, v := range kernels.Variants() {
		if ComparerMetricsAt(v, spec, 23, DefaultWorkGroupSize) != ComparerMetrics(v, spec, 23) {
			t.Errorf("%s: ComparerMetricsAt(256) diverges from ComparerMetrics", v)
		}
	}
	if finderMetricsAt(spec, 23, DefaultWorkGroupSize) != FinderMetrics(spec, 23) {
		t.Error("finderMetricsAt(256) diverges from FinderMetrics")
	}
}

// TestMetricsAtNoAllocWhenWarm: a metrics row is the tuner's inner loop;
// recomputed over the warm kernel cache it must not allocate.
func TestMetricsAtNoAllocWhenWarm(t *testing.T) {
	spec := device.MI100()
	ComparerMetricsAt(kernels.Opt4, spec, 23, 128)
	finderMetricsAt(spec, 23, 128)
	if avg := testing.AllocsPerRun(100, func() {
		ComparerMetricsAt(kernels.Opt4, spec, 23, 128)
	}); avg != 0 {
		t.Errorf("warm ComparerMetricsAt allocates %v per call", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		finderMetricsAt(spec, 23, 128)
	}); avg != 0 {
		t.Errorf("warm finderMetricsAt allocates %v per call", avg)
	}
}
