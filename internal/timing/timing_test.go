package timing

import (
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

// comparerish returns stats shaped like a comparer launch over n items.
func comparerish(n int64) gpu.Stats {
	return gpu.Stats{
		WorkItems:        n,
		WorkGroups:       n / 256,
		GlobalLoadOps:    22 * n,
		RedundantLoadOps: 11 * n,
		GlobalLoadBytes:  30 * n,
		GlobalStoreBytes: 7 * n,
		LocalLoadOps:     70 * n,
		LocalStoreOps:    n / 2,
		AtomicOps:        n / 100,
		Barriers:         n,
		ALUOps:           200 * n,
		Branches:         40 * n,
	}
}

func baseCfg() KernelConfig {
	return KernelConfig{
		Spec:                device.MI60(),
		OccupancyWaves:      10,
		VGPRs:               64,
		WorkGroupSize:       256,
		LeaderPrefetch:      true,
		PrefetchOpsPerGroup: 92,
		ScatterFactor:       1.0,
	}
}

func TestKernelSecondsPositiveAndLinear(t *testing.T) {
	cfg := baseCfg()
	s1 := comparerish(1 << 20)
	s2 := comparerish(1 << 21)
	t1 := KernelSeconds(cfg, &s1)
	t2 := KernelSeconds(cfg, &s2)
	if t1 <= 0 {
		t.Fatalf("KernelSeconds = %v, want > 0", t1)
	}
	if ratio := t2 / t1; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("doubling work scaled time by %.2f, want ~2", ratio)
	}
}

func TestOccupancyLowersTime(t *testing.T) {
	s := comparerish(1 << 20)
	high := baseCfg()
	low := baseCfg()
	low.OccupancyWaves = 5
	if KernelSeconds(low, &s) <= KernelSeconds(high, &s) {
		t.Error("halving occupancy should increase latency-bound time")
	}
}

func TestRegisterPressurePenalty(t *testing.T) {
	s := comparerish(1 << 20)
	lean := baseCfg()
	fat := baseCfg()
	fat.VGPRs = 82
	fat.OccupancyWaves = 9
	ratio := KernelSeconds(fat, &s) / KernelSeconds(lean, &s)
	// The opt4 regression of Fig. 2: time nearly doubles.
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("opt4-like pressure ratio = %.2f, want ~2", ratio)
	}
}

func TestLeaderPrefetchCost(t *testing.T) {
	s := comparerish(1 << 20)
	leader := baseCfg()
	coop := baseCfg()
	coop.LeaderPrefetch = false
	bl := KernelBreakdown(leader, &s)
	bc := KernelBreakdown(coop, &s)
	if bl.Leader <= 0 {
		t.Error("leader staging term missing")
	}
	if bc.Leader != 0 {
		t.Error("cooperative staging should have no leader term")
	}
	if bl.Total() <= bc.Total() {
		t.Error("leader staging should cost time")
	}
}

func TestScatterFactor(t *testing.T) {
	s := comparerish(1 << 20)
	scattered := baseCfg()
	coalesced := baseCfg()
	coalesced.ScatterFactor = 0.02
	ts := KernelBreakdown(scattered, &s)
	tc := KernelBreakdown(coalesced, &s)
	if tc.Latency >= ts.Latency/10 {
		t.Errorf("coalesced latency %.3f not much below scattered %.3f", tc.Latency, ts.Latency)
	}
}

func TestRedundantLoadsDiscounted(t *testing.T) {
	cfg := baseCfg()
	unique := comparerish(1 << 20)
	unique.RedundantLoadOps = 0
	mixed := comparerish(1 << 20) // half the loads redundant
	tu := KernelSeconds(cfg, &unique)
	tm := KernelSeconds(cfg, &mixed)
	if tm >= tu {
		t.Error("redundant loads should cost less than unique loads")
	}
}

func TestSmallerGroupsCostMore(t *testing.T) {
	// Same total work split into 4x more groups (the OpenCL runtime's
	// 64-item groups vs SYCL's 256): dispatch + leader staging grow.
	big := comparerish(1 << 20)
	small := big
	small.WorkGroups *= 4
	cfg := baseCfg()
	if KernelSeconds(cfg, &small) <= KernelSeconds(cfg, &big) {
		t.Error("more groups for the same work should cost time")
	}
}

func TestBreakdownTotalComposition(t *testing.T) {
	b := Breakdown{Compute: 1, Bandwidth: 3, Latency: 2, Leader: 0.5, Group: 0.25}
	if got := b.Total(); got != 3+2+0.5+0.25 {
		t.Errorf("Total = %v", got)
	}
	b.Compute = 5
	if got := b.Total(); got != 5+2+0.5+0.25 {
		t.Errorf("Total with compute roof = %v", got)
	}
}

func TestDefaultOccupancy(t *testing.T) {
	cfg := baseCfg()
	cfg.OccupancyWaves = 0 // defaults to the device maximum
	s := comparerish(1 << 18)
	withMax := baseCfg()
	withMax.OccupancyWaves = withMax.Spec.MaxWavesPerSIMD
	if KernelSeconds(cfg, &s) != KernelSeconds(withMax, &s) {
		t.Error("zero occupancy should default to device maximum")
	}
}

func TestHostSeconds(t *testing.T) {
	h := HostCounters{BytesStaged: 3_100_000_000, BytesRead: 50_000_000, Chunks: 7, Entries: 10_000}
	sec := HostSeconds(h)
	if sec <= 0 {
		t.Fatal("HostSeconds <= 0")
	}
	// Staging should dominate for genome-scale inputs.
	stageOnly := HostSeconds(HostCounters{BytesStaged: h.BytesStaged})
	if stageOnly < sec*0.8 {
		t.Errorf("staging %.2f should dominate host time %.2f", stageOnly, sec)
	}
	// Host time must be in the paper's plausible range (its elapsed times
	// are 41-71 s with kernels at 50-80%).
	if sec < 5 || sec > 40 {
		t.Errorf("host time for one assembly = %.1f s, out of plausible range", sec)
	}
}

func TestScaleStats(t *testing.T) {
	s := comparerish(1000)
	scaled := ScaleStats(s, 2.5)
	if scaled.GlobalLoadOps != int64(float64(s.GlobalLoadOps)*2.5) {
		t.Errorf("GlobalLoadOps = %d", scaled.GlobalLoadOps)
	}
	if scaled.RedundantLoadOps != int64(float64(s.RedundantLoadOps)*2.5) {
		t.Errorf("RedundantLoadOps = %d", scaled.RedundantLoadOps)
	}
	if scaled.WorkItems != 2500 || scaled.Barriers != 2500 {
		t.Error("linear fields not scaled")
	}
}

func TestScaleHost(t *testing.T) {
	h := ScaleHost(HostCounters{BytesStaged: 100, BytesRead: 10, Chunks: 4, Entries: 7}, 3)
	if h.BytesStaged != 300 || h.BytesRead != 30 || h.Chunks != 12 || h.Entries != 21 {
		t.Errorf("ScaleHost = %+v", h)
	}
}

// TestDevicesOrdering: MI100 (more CUs, more bandwidth) must be faster than
// RVII/MI60 on identical work, matching the paper's device ordering.
func TestDevicesOrdering(t *testing.T) {
	s := comparerish(1 << 20)
	times := map[string]float64{}
	for _, spec := range device.All() {
		cfg := baseCfg()
		cfg.Spec = spec
		times[spec.Name] = KernelSeconds(cfg, &s)
	}
	if times["MI100"] >= times["MI60"] || times["MI100"] >= times["RVII"] {
		t.Errorf("MI100 should be fastest: %v", times)
	}
}
