package timing

import (
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

// --- ScaleStats / ScaleHost edge cases --------------------------------------

func fullStats() gpu.Stats {
	return gpu.Stats{
		WorkItems:         1000,
		WorkGroups:        4,
		GlobalLoadOps:     2000,
		GlobalLoadBytes:   8000,
		RedundantLoadOps:  300,
		GlobalStoreOps:    100,
		GlobalStoreBytes:  400,
		ConstantLoadOps:   1000,
		LocalLoadOps:      500,
		LocalStoreOps:     240,
		AtomicOps:         60,
		Barriers:          12,
		ALUOps:            9000,
		Branches:          1500,
		DivergentBranches: 72,
	}
}

func TestScaleStatsZeroFactor(t *testing.T) {
	got := ScaleStats(fullStats(), 0)
	if got != (gpu.Stats{}) {
		t.Errorf("ScaleStats(s, 0) = %+v, want all-zero stats", got)
	}
}

func TestScaleStatsIdentity(t *testing.T) {
	s := fullStats()
	if got := ScaleStats(s, 1); got != s {
		t.Errorf("ScaleStats(s, 1) = %+v, want s unchanged", got)
	}
}

func TestScaleStatsFractionalRoundTrip(t *testing.T) {
	// Scaling down by 1/f and back up by f must reproduce every counter
	// exactly when the counters are multiples of f — the projection
	// contract the calibration harness relies on.
	s := fullStats()
	down := ScaleStats(s, 0.25)
	if down.WorkItems != 250 || down.GlobalLoadOps != 500 || down.AtomicOps != 15 {
		t.Fatalf("ScaleStats(s, 0.25) = %+v, want exact quarters", down)
	}
	if up := ScaleStats(down, 4); up != s {
		t.Errorf("round trip = %+v, want original %+v", up, s)
	}
}

func TestScaleStatsTruncates(t *testing.T) {
	// Fractional results truncate toward zero (int64 conversion), they do
	// not round: 3 * 0.5 = 1, not 2.
	s := gpu.Stats{WorkItems: 3}
	if got := ScaleStats(s, 0.5); got.WorkItems != 1 {
		t.Errorf("ScaleStats({3}, 0.5).WorkItems = %d, want 1 (truncation)", got.WorkItems)
	}
}

func TestScaleHostZeroFactor(t *testing.T) {
	h := HostCounters{BytesStaged: 1 << 20, BytesRead: 4096, Chunks: 7, Entries: 99}
	if got := ScaleHost(h, 0); got != (HostCounters{}) {
		t.Errorf("ScaleHost(h, 0) = %+v, want zero counters", got)
	}
}

func TestScaleHostFractionalRoundTrip(t *testing.T) {
	h := HostCounters{BytesStaged: 1 << 20, BytesRead: 4096, Chunks: 8, Entries: 96}
	down := ScaleHost(h, 0.5)
	if down.Chunks != 4 || down.Entries != 48 {
		t.Fatalf("ScaleHost(h, 0.5) = %+v, want exact halves", down)
	}
	if up := ScaleHost(down, 2); up != h {
		t.Errorf("round trip = %+v, want original %+v", up, h)
	}
	if HostSeconds(down)*2-HostSeconds(h) > 1e-12 {
		t.Errorf("HostSeconds does not scale linearly: %g vs %g", HostSeconds(down)*2, HostSeconds(h))
	}
}

// --- KernelSeconds monotonicity across Table VII ----------------------------

// comparerConfig builds the scattered dependent-load launch shape of the
// comparer kernel (the §IV.B hotspot) on one device.
func comparerConfig(spec device.Spec) KernelConfig {
	return KernelConfig{
		Spec:           spec,
		OccupancyWaves: 4,
		VGPRs:          48,
		WorkGroupSize:  256,
		ScatterFactor:  1.0,
	}
}

// comparerStats is a fixed scattered workload: per-candidate dependent
// window reads, the latency-bound regime where device differences dominate.
func comparerStats() *gpu.Stats {
	const loads = 2 << 20
	return &gpu.Stats{
		WorkItems:     1 << 16,
		WorkGroups:    1 << 8,
		GlobalLoadOps: loads,
		LocalLoadOps:  loads,
		ALUOps:        4 * loads,
		Branches:      loads,
	}
}

// TestKernelSecondsDeviceMonotonic pins the Table VII ordering on the
// scattered comparer workload: the Radeon VII (60 CUs) is slower than the
// MI60 (64 CUs, same clock and latency), which is slower than the MI100
// (120 CUs at a lower latency).
func TestKernelSecondsDeviceMonotonic(t *testing.T) {
	stats := comparerStats()
	rvii := KernelSeconds(comparerConfig(device.RadeonVII()), stats)
	mi60 := KernelSeconds(comparerConfig(device.MI60()), stats)
	mi100 := KernelSeconds(comparerConfig(device.MI100()), stats)
	if !(rvii > mi60 && mi60 > mi100) {
		t.Fatalf("device ordering broken: RVII %.6gs, MI60 %.6gs, MI100 %.6gs (want RVII > MI60 > MI100)",
			rvii, mi60, mi100)
	}
	if mi100 <= 0 {
		t.Fatalf("MI100 estimate %.6g, want positive", mi100)
	}
}

// --- ChunkEstimate ----------------------------------------------------------

func chunkEstimate(spec device.Spec) ChunkEstimate {
	finder := comparerConfig(spec)
	finder.ScatterFactor = 0.02
	finder.LeaderPrefetch = true
	finder.PrefetchOpsPerGroup = 4 * 23
	return ChunkEstimate{Finder: finder, Comparer: comparerConfig(spec), PatternLen: 23, Queries: 1}
}

func TestChunkEstimateDeviceMonotonic(t *testing.T) {
	// The per-chunk estimate must preserve the Table VII ordering — it is
	// the scheduler's shard weight (1/Seconds), so an inversion would
	// seed the slowest device with the most work.
	rvii := chunkEstimate(device.RadeonVII()).Seconds(1 << 20)
	mi60 := chunkEstimate(device.MI60()).Seconds(1 << 20)
	mi100 := chunkEstimate(device.MI100()).Seconds(1 << 20)
	if !(rvii > mi60 && mi60 > mi100) {
		t.Fatalf("chunk-cost ordering broken: RVII %.6gs, MI60 %.6gs, MI100 %.6gs", rvii, mi60, mi100)
	}
}

func TestChunkEstimateGrowsWithChunkSize(t *testing.T) {
	e := chunkEstimate(device.MI60())
	small, large := e.Seconds(1<<16), e.Seconds(1<<20)
	if !(large > small) {
		t.Fatalf("estimate not increasing in chunk size: %d bytes → %.6gs, %d bytes → %.6gs",
			1<<16, small, 1<<20, large)
	}
	if small <= 0 {
		t.Fatalf("estimate %.6g, want positive", small)
	}
}

// --- Work-group size accounting ---------------------------------------------

// TestEffectiveWaves pins the wave-slot model: exact-fit sizes keep the
// resource-limited occupancy, groups wider than the remaining slot budget
// lose waves to granularity, and non-wavefront-multiple groups lose lanes
// to fill.
func TestEffectiveWaves(t *testing.T) {
	spec := device.RadeonVII() // 64-lane waves, 4 SIMDs/CU
	cases := []struct {
		occ, wg int
		want    float64
	}{
		{9, 64, 9},    // one wave per group: granularity can't bind
		{9, 256, 9},   // 36 slots / 4 waves-per-group = 9 whole groups
		{9, 512, 8},   // 36 slots / 8 = 4 groups: a wave per SIMD lost
		{9, 96, 6.75}, // 18 groups of 2 waves, but 96/128 lane fill
		{10, 256, 10}, // the maximum survives an exact fit
		{4, 1024, 4},  // 16 slots = exactly one 16-wave group
	}
	for _, c := range cases {
		if got := effectiveWaves(spec, c.occ, c.wg); got != c.want {
			t.Errorf("effectiveWaves(occ=%d, wg=%d) = %v, want %v", c.occ, c.wg, got, c.want)
		}
	}
	if got := effectiveWaves(spec, 0, 0); got != 10 {
		t.Errorf("effectiveWaves defaults = %v, want the 10-wave maximum", got)
	}
}

// TestChunkEstimateWGSizeMonotonic: while the work-group size fits the
// occupancy's slot budget exactly (occ=4 divides every candidate), larger
// groups amortise per-group dispatch and leader staging, so the chunk
// estimate must strictly decrease from 64 to 512 on every device.
func TestChunkEstimateWGSizeMonotonic(t *testing.T) {
	for _, spec := range device.All() {
		prev := 0.0
		for i, wg := range []int{512, 256, 128, 64} {
			e := chunkEstimate(spec)
			e.Finder.WorkGroupSize = wg
			e.Comparer.WorkGroupSize = wg
			got := e.Seconds(1 << 20)
			if i > 0 && !(got > prev) {
				t.Errorf("%s: estimate at wg=%d (%.6gs) not above wg=%d — WG size flattened",
					spec.Name, wg, got, wg*2)
			}
			prev = got
		}
	}
}

// TestEffectiveWavesGranularityPenalty: with the group count held fixed,
// the latency term must penalise work-group sizes that waste wave slots —
// a 512-item group drops a 9-wave occupancy to 8, and a 96-item group
// fills only 3/4 of its second wave.
func TestEffectiveWavesGranularityPenalty(t *testing.T) {
	cfg := comparerConfig(device.RadeonVII())
	cfg.OccupancyWaves = 9
	stats := comparerStats()
	at := func(wg int) float64 {
		c := cfg
		c.WorkGroupSize = wg
		return KernelSeconds(c.withEffectiveWaves(), stats)
	}
	if !(at(512) > at(256)) {
		t.Errorf("wg=512 (%.6gs) not slower than wg=256 (%.6gs) at 9 waves", at(512), at(256))
	}
	if !(at(96) > at(128)) {
		t.Errorf("wg=96 (%.6gs) not slower than wg=128 (%.6gs): lane fill ignored", at(96), at(128))
	}
}

func TestChunkEstimatePartsSum(t *testing.T) {
	e := chunkEstimate(device.MI60())
	f, c, h := e.parts(1 << 20)
	if f <= 0 || c <= 0 || h <= 0 {
		t.Fatalf("Parts = (%.6g, %.6g, %.6g), want all positive", f, c, h)
	}
	if sum, got := f+c+h, e.Seconds(1<<20); sum != got {
		t.Errorf("Parts sum %.12g != Seconds %.12g", sum, got)
	}
	if c < f {
		t.Errorf("comparer term %.6g below finder term %.6g; the §IV.B hotspot shape is lost", c, f)
	}
}

func TestChunkEstimateDefaults(t *testing.T) {
	// Zero-valued knobs fall back to defaults rather than producing a
	// zero or negative cost.
	e := ChunkEstimate{Finder: comparerConfig(device.MI100()), Comparer: comparerConfig(device.MI100())}
	if got := e.Seconds(0); got <= 0 {
		t.Fatalf("zero-config estimate %.6g, want positive default", got)
	}
	// More queries cost more comparer time.
	eq := chunkEstimate(device.MI100())
	eq.Queries = 4
	if eq.Seconds(1<<20) <= chunkEstimate(device.MI100()).Seconds(1<<20) {
		t.Error("4-query estimate not larger than 1-query estimate")
	}
}
