package search

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// simEngine builds a fresh simulator engine with its own device, so every
// run starts with virgin fault-injection counters — the injector's per-site
// sequence numbers are cumulative per device, and determinism comparisons
// need each run to replay from event zero.
type simEngine struct {
	name  string
	build func(plan fault.Plan, res *pipeline.Resilience) Engine
}

func simEngines() []simEngine {
	newDev := func(plan fault.Plan) *gpu.Device {
		dev := gpu.New(device.MI100(), gpu.WithWorkers(4))
		if in := fault.NewInjector(plan); in != nil {
			dev.SetFaults(in)
		}
		return dev
	}
	return []simEngine{
		{"opencl", func(plan fault.Plan, res *pipeline.Resilience) Engine {
			return &SimCL{Device: newDev(plan), Variant: kernels.Base, Resilience: res}
		}},
		{"sycl", func(plan fault.Plan, res *pipeline.Resilience) Engine {
			return &SimSYCL{Device: newDev(plan), Variant: kernels.Base, WorkGroupSize: 64, Resilience: res}
		}},
	}
}

// TestFaultMatrix is the acceptance sweep: every simulator engine, under a
// seeded 5% fault rate at every injectable site, completes through retry and
// CPU failover with a hit stream identical to the fault-free run.
func TestFaultMatrix(t *testing.T) {
	asm := testAssembly(t, 11, []int{700, 450, 90}, testSite)
	req := testRequest(2)
	for _, se := range simEngines() {
		golden, err := se.build(fault.Plan{}, nil).Run(asm, req)
		if err != nil {
			t.Fatalf("%s golden: %v", se.name, err)
		}
		if len(golden) == 0 {
			t.Fatalf("%s golden produced no hits", se.name)
		}
		for _, site := range append(fault.Sites(), fault.Site("")) {
			label := string(site)
			if label == "" {
				label = "all-sites"
			}
			t.Run(se.name+"/"+label, func(t *testing.T) {
				plan := fault.Plan{Seed: 42, Rate: 0.05, Site: site}
				// The watchdog is part of the policy, so an injected
				// gpu.hang parks until the watchdog reaps it; without a
				// deadline the hang would fail its launch at once.
				eng := se.build(plan, &pipeline.Resilience{Seed: plan.Seed, Watchdog: 500 * time.Millisecond})
				got, err := eng.Run(asm, req)
				if err != nil {
					t.Fatalf("faulted run: %v", err)
				}
				if !equalHits(got, golden) {
					t.Errorf("hits diverged under faults (%d vs %d)", len(got), len(golden))
				}
			})
		}
	}
}

// TestFaultDeterminism replays the same fault plan twice on fresh devices:
// the hit streams, the fired-fault logs and the resilience counters must be
// identical — the paper-style debugging story depends on byte-identical
// replay.
func TestFaultDeterminism(t *testing.T) {
	asm := testAssembly(t, 7, []int{600, 300}, testSite)
	req := testRequest(2)
	for _, se := range simEngines() {
		t.Run(se.name, func(t *testing.T) {
			run := func() ([]Hit, *Profile) {
				plan := fault.Plan{Seed: 1234, Rate: 0.3}
				// Watchdog kills stay deterministic: an injected hang always
				// exceeds the deadline, and the simulated phases finish
				// orders of magnitude under it.
				eng := se.build(plan, &pipeline.Resilience{Seed: plan.Seed, Watchdog: 500 * time.Millisecond})
				hits, err := eng.Run(asm, req)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return hits, eng.(Profiler).LastProfile()
			}
			hits1, p1 := run()
			hits2, p2 := run()
			if !equalHits(hits1, hits2) {
				t.Errorf("same seed produced different hits (%d vs %d)", len(hits1), len(hits2))
			}
			if len(p1.FaultLog) == 0 {
				t.Fatal("no faults fired; rate too low for the test to mean anything")
			}
			if len(p1.FaultLog) != len(p2.FaultLog) {
				t.Fatalf("fault logs differ in length: %d vs %d", len(p1.FaultLog), len(p2.FaultLog))
			}
			for i := range p1.FaultLog {
				if p1.FaultLog[i] != p2.FaultLog[i] {
					t.Fatalf("fault log diverges at %d: %+v vs %+v", i, p1.FaultLog[i], p2.FaultLog[i])
				}
			}
			if p1.Retries != p2.Retries || p1.Failovers != p2.Failovers ||
				p1.WatchdogKills != p2.WatchdogKills || p1.QuarantinedChunks != p2.QuarantinedChunks {
				t.Errorf("resilience counters differ: %d/%d/%d/%d vs %d/%d/%d/%d",
					p1.Retries, p1.Failovers, p1.WatchdogKills, p1.QuarantinedChunks,
					p2.Retries, p2.Failovers, p2.WatchdogKills, p2.QuarantinedChunks)
			}
		})
	}
}

// TestWatchdogReapsHungKernel injects a hang on every kernel launch: the
// watchdog must cancel each hung launch through its context and the chunk
// must complete on the CPU failover, keeping the golden hit stream.
func TestWatchdogReapsHungKernel(t *testing.T) {
	asm := testAssembly(t, 3, []int{500}, testSite)
	req := testRequest(1)
	for _, se := range simEngines() {
		t.Run(se.name, func(t *testing.T) {
			golden, err := se.build(fault.Plan{}, nil).Run(asm, req)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			plan := fault.Plan{Seed: 9, Rate: 1, Site: fault.SiteHang}
			eng := se.build(plan, &pipeline.Resilience{
				Seed:       plan.Seed,
				MaxRetries: -1, // straight to failover once the watchdog fires
				Watchdog:   50 * time.Millisecond,
			})
			got, err := eng.Run(asm, req)
			if err != nil {
				t.Fatalf("hung run: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("watchdog took %v; hung launches were not reaped promptly", elapsed)
			}
			if !equalHits(got, golden) {
				t.Errorf("hits diverged after watchdog failover (%d vs %d)", len(got), len(golden))
			}
			p := eng.(Profiler).LastProfile()
			if p.WatchdogKills == 0 {
				t.Error("no watchdog kills recorded")
			}
			if p.Failovers == 0 {
				t.Error("no failovers recorded")
			}
		})
	}
}

// TestWatchdogReapsHungGather aims a gpu.hang at the gather launch: the
// run's second launch, after the first chunk's finder. Under a watchdog the
// hung gather is reaped through the chunk's context and the chunk retried;
// every later launch hangs as well, so the retry is reaped in turn and the
// chunk completes on the CPU failover, keeping the clean hit stream.
func TestWatchdogReapsHungGather(t *testing.T) {
	asm := testAssembly(t, 3, []int{500}, testSite)
	req := testRequest(1)
	for _, se := range simEngines() {
		t.Run(se.name, func(t *testing.T) {
			golden, err := se.build(fault.Plan{}, nil).Run(asm, req)
			if err != nil {
				t.Fatal(err)
			}
			plan := fault.Plan{Seed: 9, Rate: 1, Site: fault.SiteHang, After: 1}
			eng := se.build(plan, &pipeline.Resilience{Seed: plan.Seed, MaxRetries: 1, Watchdog: 50 * time.Millisecond})
			tr := obs.NewTracer()
			switch e := eng.(type) {
			case *SimCL:
				e.Trace = tr
			case *SimSYCL:
				e.Trace = tr
			}
			got, err := eng.Run(asm, req)
			if err != nil {
				t.Fatalf("hung run: %v", err)
			}
			if !equalHits(got, golden) {
				t.Errorf("hits diverged after the hung gather (%d vs %d)", len(got), len(golden))
			}
			reaped := false
			for _, s := range tr.Spans() {
				if s.Name != "launch:"+kernels.GatherKernelName {
					continue
				}
				for _, a := range s.Attrs {
					reaped = reaped || a.Key == "error" && strings.Contains(a.Value, "hung work-group cancelled")
				}
			}
			if !reaped {
				t.Error("no gather launch was reaped by the watchdog")
			}
			p := eng.(Profiler).LastProfile()
			if len(p.FaultLog) == 0 || p.FaultLog[0] != (fault.Event{Site: fault.SiteHang, Seq: 1}) {
				t.Errorf("first fault %v, want the second launch's hang", p.FaultLog)
			}
			if p.WatchdogKills == 0 || p.Retries == 0 || p.Failovers == 0 {
				t.Errorf("watchdog kills %d, retries %d, failovers %d: want each at least one",
					p.WatchdogKills, p.Retries, p.Failovers)
			}
		})
	}
}

// TestCorruptionReverification corrupts every device-to-host readback: the
// validation layer must classify the chunk as corrupted (skipping retries)
// and the CPU re-verification must reproduce the fault-free hits exactly.
func TestCorruptionReverification(t *testing.T) {
	asm := testAssembly(t, 17, []int{800, 200}, testSite)
	req := testRequest(2)
	for _, se := range simEngines() {
		t.Run(se.name, func(t *testing.T) {
			golden, err := se.build(fault.Plan{}, nil).Run(asm, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(golden) == 0 {
				t.Fatal("golden produced no hits")
			}
			plan := fault.Plan{Seed: 42, Rate: 1, Site: fault.SiteReadback}
			eng := se.build(plan, &pipeline.Resilience{Seed: plan.Seed, MaxRetries: 5})
			got, err := eng.Run(asm, req)
			if err != nil {
				t.Fatalf("corrupted run: %v", err)
			}
			if !equalHits(got, golden) {
				t.Errorf("re-verified hits diverged from golden (%d vs %d)", len(got), len(golden))
			}
			p := eng.(Profiler).LastProfile()
			if p.Failovers == 0 {
				t.Error("corruption did not trigger failover")
			}
			if p.Retries != 0 {
				t.Errorf("corruption was retried %d times; it must skip straight to failover", p.Retries)
			}
			if p.Faults[fault.SiteReadback] == 0 {
				t.Error("no readback faults recorded in the profile")
			}
		})
	}
}

// TestQuarantineReportsPartial removes the failover arm and makes the
// primary fail fatally on every chunk: the engine must return a
// PartialError naming every chunk, with no hits emitted.
func TestQuarantineReportsPartial(t *testing.T) {
	asm := testAssembly(t, 5, []int{400}, testSite)
	req := testRequest(1)
	plan := fault.Plan{Seed: 8, Rate: 1, Site: fault.SiteCLDeviceLost}
	var report *pipeline.Report
	eng := &SimCL{
		Device:  gpu.New(device.MI100(), gpu.WithWorkers(4)),
		Variant: kernels.Base,
		Resilience: &pipeline.Resilience{
			Seed: plan.Seed,
			Fallback: func(*pipeline.Plan) (pipeline.Backend, error) {
				return nil, fault.Errorf(fault.SiteCLDeviceLost, fault.Fatal, "no fallback in this test")
			},
			OnReport: func(r *pipeline.Report) { report = r },
		},
	}
	eng.Device.SetFaults(fault.NewInjector(plan))
	hits, err := Collect(context.Background(), eng, asm, req)
	var pe *pipeline.PartialError
	if err == nil || !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *pipeline.PartialError", err)
	}
	if len(hits) != 0 {
		t.Errorf("%d hits emitted from quarantined chunks", len(hits))
	}
	if report == nil || len(report.Quarantined) != report.Chunks || report.Chunks == 0 {
		t.Fatalf("report = %+v, want every chunk quarantined", report)
	}
	p := eng.LastProfile()
	if p.QuarantinedChunks != report.Chunks {
		t.Errorf("profile quarantined %d, report %d", p.QuarantinedChunks, report.Chunks)
	}
	if !p.Degraded() {
		t.Error("profile not marked degraded")
	}
}
