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
	if p.Degraded() {
		t.Errorf("clean run degraded: failovers=%d", p.Failovers)
	}
	total := 0
	for _, n := range p.DeviceChunks {
		total += n
	}
	if total == 0 || total != p.Chunks {
		t.Errorf("per-device chunk accounting %v does not cover the %d staged chunks", p.DeviceChunks, p.Chunks)
	}
}

// TestMultiSYCLSchedFailsOverPerDevice: when every device fails every
// launch, each fails its own chunks over to its own CPU fallback and goes on
// pulling the queue: every chunk is failed over once, on the device that
// claimed it, and the output is still byte-identical.
func TestMultiSYCLSchedFailsOverPerDevice(t *testing.T) {
	asm := testAssembly(t, 24, []int{900, 700, 400}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 256
	want := schedGolden(t, asm, req)

	devs := hetFleet()
	for i, d := range devs {
		d.SetFaults(fault.NewInjector(fault.Plan{Seed: uint64(40 + i), Rate: 1, Site: fault.SiteLaunch}))
	}
	multi := &MultiSYCL{
		Devices: devs, Variant: kernels.Base, WorkGroupSize: 64,
		Resilience: &pipeline.Resilience{MaxRetries: -1, Seed: 40},
	}
	got, err := multi.Run(asm, req)
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	if !equalHits(got, want) {
		t.Fatalf("failover run: %d hits != single %d", len(got), len(want))
	}
	p := multi.LastProfile()
	settled := 0
	for _, n := range p.DeviceChunks {
		settled += n
	}
	if len(p.DeviceChunks) != len(devs) || settled == 0 {
		t.Fatalf("per-device rows %v, want one per device covering the plan", p.DeviceChunks)
	}
	if p.Failovers != int64(settled) || p.Faults[fault.SiteLaunch] != int64(settled) || p.QuarantinedChunks != 0 {
		t.Errorf("failovers=%d launch faults=%d quarantined=%d, want one failed launch and one failover per chunk (%d)",
			p.Failovers, p.Faults[fault.SiteLaunch], p.QuarantinedChunks, settled)
	}
	if !p.Degraded() {
		t.Error("failover run not marked degraded")
	}
}

// TestMultiSYCLSchedMetricsParity extends the metrics-profile agreement
// check to the fleet: on a seeded fault run the hits must match a clean
// single device and the -metrics counters — including the failover series —
// must equal the merged profile's totals.
func TestMultiSYCLSchedMetricsParity(t *testing.T) {
	asm := testAssembly(t, 25, []int{900, 600, 400}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 256

	m := obs.NewMetrics()
	devs := hetFleet()
	// One device fails every launch (its chunks fail over), another is
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
	got, err := multi.Run(asm, req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := schedGolden(t, asm, req); !equalHits(got, want) {
		t.Fatalf("degraded fleet: %d hits != single %d", len(got), len(want))
	}
	p := multi.LastProfile()
	if p.Failovers == 0 {
		t.Fatal("run failed nothing over; the parity check needs a degraded run")
	}
	requireMetricsAgree(t, m, p)
}
