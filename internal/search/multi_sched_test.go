package search

import (
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// hetFleet builds the heterogeneous fleet of the paper's Table VII: one
// device of each spec.
func hetFleet() []*gpu.Device {
	return []*gpu.Device{
		gpu.New(device.RadeonVII(), gpu.WithWorkers(2)),
		gpu.New(device.MI60(), gpu.WithWorkers(2)),
		gpu.New(device.MI100(), gpu.WithWorkers(2)),
	}
}

func schedGolden(t *testing.T, asm *genome.Assembly, req *Request) []Hit {
	t.Helper()
	single := &SimSYCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(2)), Variant: kernels.Base, WorkGroupSize: 64}
	want, err := single.Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no hits in test data")
	}
	return want
}

// TestMultiSYCLSchedStealsOnHeterogeneousFleet: on a mixed fleet, where
// faster devices pull more of the queue, the executor must account every
// chunk to some device and the merged profile must carry the per-device
// breakdown.
func TestMultiSYCLSchedStealsOnHeterogeneousFleet(t *testing.T) {
	asm := testAssembly(t, 21, []int{900, 700, 500, 300}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 256
	multi := &MultiSYCL{Devices: hetFleet(), Variant: kernels.Base, WorkGroupSize: 64}
	got, err := multi.Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	want := schedGolden(t, asm, req)
	if !equalHits(got, want) {
		t.Fatalf("scheduler fleet: %d hits != single %d", len(got), len(want))
	}
	p := multi.LastProfile()
	if p.Evictions != 0 {
		t.Errorf("clean run evicted %d devices", p.Evictions)
	}
	total := 0
	for _, n := range p.DeviceChunks {
		total += n
	}
	if total == 0 || total != p.Chunks {
		t.Errorf("per-device chunk accounting %v does not cover the %d staged chunks", p.DeviceChunks, p.Chunks)
	}
}

// TestMultiSYCLSchedEvictionKeepsHits: a device whose every launch fails is
// evicted; the survivors absorb its chunk and the hit stream stays
// byte-identical to the clean single-device run.
func TestMultiSYCLSchedEvictionKeepsHits(t *testing.T) {
	asm := testAssembly(t, 23, []int{900, 600, 300}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 256
	want := schedGolden(t, asm, req)

	devs := hetFleet()
	// Device 0 fails every kernel launch; retries are disabled so the
	// first failure evicts it.
	devs[0].SetFaults(fault.NewInjector(fault.Plan{Seed: 7, Rate: 1, Site: fault.SiteLaunch}))
	multi := &MultiSYCL{
		Devices: devs, Variant: kernels.Base, WorkGroupSize: 64,
		Resilience: &pipeline.Resilience{MaxRetries: -1, Seed: 7},
	}
	got, err := multi.Run(asm, req)
	if err != nil {
		t.Fatalf("eviction run: %v", err)
	}
	if !equalHits(got, want) {
		t.Fatalf("eviction run: %d hits != single %d", len(got), len(want))
	}
	p := multi.LastProfile()
	if p.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", p.Evictions)
	}
	if !p.Degraded() {
		t.Error("eviction run not marked degraded")
	}
	if p.Failovers != 0 {
		t.Errorf("failovers = %d, want 0 (survivors absorbed the chunk)", p.Failovers)
	}
	if len(p.FaultLog) == 0 {
		t.Error("evicted device's fault events missing from the merged log")
	}
}

// TestMultiSYCLSchedAllEvictedFallsBack: when every device dies, all but
// the last are evicted, the last fails every chunk over to the CPU SWAR
// fallback and the output is still byte-identical.
func TestMultiSYCLSchedAllEvictedFallsBack(t *testing.T) {
	asm := testAssembly(t, 24, []int{700, 400}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 256
	want := schedGolden(t, asm, req)

	devs := multiDevices(2)
	for i, d := range devs {
		d.SetFaults(fault.NewInjector(fault.Plan{Seed: uint64(40 + i), Rate: 1, Site: fault.SiteLaunch}))
	}
	multi := &MultiSYCL{
		Devices: devs, Variant: kernels.Base, WorkGroupSize: 64,
		Resilience: &pipeline.Resilience{MaxRetries: -1, Seed: 40},
	}
	got, err := multi.Run(asm, req)
	if err != nil {
		t.Fatalf("all-evicted run: %v", err)
	}
	if !equalHits(got, want) {
		t.Fatalf("all-evicted run: %d hits != single %d", len(got), len(want))
	}
	p := multi.LastProfile()
	if p.Evictions != int64(len(devs))-1 {
		t.Errorf("evictions = %d, want %d (all but the last live device)", p.Evictions, len(devs)-1)
	}
	if p.Failovers == 0 {
		t.Error("no failovers counted though every chunk went through the fallback")
	}
}

// TestMultiSYCLSchedMetricsParity extends the metrics-profile agreement
// check to the fleet: on a seeded fault run the -metrics counters —
// including the eviction series — must equal the merged profile's totals.
func TestMultiSYCLSchedMetricsParity(t *testing.T) {
	asm := testAssembly(t, 25, []int{900, 600, 400}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 256

	m := obs.NewMetrics()
	devs := hetFleet()
	// One device fails every launch (guaranteed eviction), another is
	// moderately flaky (retries), so every recovery counter moves.
	devs[0].SetFaults(fault.NewInjector(fault.Plan{Seed: 50, Rate: 1, Site: fault.SiteLaunch}))
	devs[1].SetFaults(fault.NewInjector(fault.Plan{Seed: 51, Rate: 0.2, Site: fault.SiteSYCLAsync}))
	multi := &MultiSYCL{
		Devices: devs, Variant: kernels.Base, WorkGroupSize: 64,
		Resilience: &pipeline.Resilience{
			MaxRetries: 2, Seed: 50,
			BackoffBase: time.Microsecond, BackoffMax: time.Microsecond,
			Watchdog: 500 * time.Millisecond,
		},
		Metrics: m,
	}
	if _, err := multi.Run(asm, req); err != nil {
		t.Fatalf("run: %v", err)
	}
	p := multi.LastProfile()
	if p.Evictions == 0 {
		t.Fatal("run evicted nothing; the parity check needs a degraded run")
	}
	requireMetricsAgree(t, m, p)
}
