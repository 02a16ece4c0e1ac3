package search

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// TestKernelNamesSorted pins the KernelNames contract: names come back
// sorted regardless of insertion order, so reports and the timing model
// iterate deterministically.
func TestKernelNamesSorted(t *testing.T) {
	p := newProfile()
	for _, name := range []string{"comparer.opt3", "finder", "comparer.base", "aligner"} {
		p.addKernel(name, &gpu.Stats{WorkItems: 1}, 64)
	}
	names := p.KernelNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("KernelNames() = %v, want sorted", names)
	}
	if len(names) != 4 {
		t.Errorf("KernelNames() returned %d names, want 4", len(names))
	}
}

// twoWriters runs a and b concurrently against one profile, as a run's
// backend and its executor's report do, and returns it once both are done.
func twoWriters(a, b func(p *Profile)) *Profile {
	p := newProfile()
	var wg sync.WaitGroup
	for _, write := range []func(*Profile){a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			write(p)
		}()
	}
	wg.Wait()
	return p
}

// TestProfileMergeAggregates pins the summing behaviour of two writers
// sharing one profile for kernel stats, launch counts and pipeline counters.
func TestProfileMergeAggregates(t *testing.T) {
	m := twoWriters(func(a *Profile) {
		a.addKernel("finder", &gpu.Stats{WorkItems: 100, WorkGroups: 2}, 64)
		a.addStagedChunk(1000)
		a.addCandidates(5)
		a.addEntries(3)
	}, func(b *Profile) {
		b.addKernel("finder", &gpu.Stats{WorkItems: 50, WorkGroups: 1}, 64)
		b.addKernel("comparer.base", &gpu.Stats{WorkItems: 10, WorkGroups: 1}, 128)
		b.addStagedChunk(500)
		b.addRead(200)
		b.addCandidates(2)
		b.addEntries(1)
	})

	if got := m.Kernels["finder"]; got.WorkItems != 150 || got.WorkGroups != 3 {
		t.Errorf("merged finder stats = %+v, want WorkItems=150 WorkGroups=3", got)
	}
	if m.Launches["finder"] != 2 || m.Launches["comparer.base"] != 1 {
		t.Errorf("merged launches = %v", m.Launches)
	}
	if m.Chunks != 2 || m.BytesStaged != 1500 || m.BytesRead != 200 {
		t.Errorf("merged traffic: chunks=%d staged=%d read=%d", m.Chunks, m.BytesStaged, m.BytesRead)
	}
	if m.CandidateSites != 7 || m.Entries != 4 {
		t.Errorf("merged counters: candidates=%d entries=%d", m.CandidateSites, m.Entries)
	}
}

// TestProfileDegraded pins the one definition of "degraded": whatever the
// executor's report calls degraded.
func TestProfileDegraded(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  pipeline.Report
		want bool
	}{
		{"clean", pipeline.Report{}, false},
		{"retry", pipeline.Report{Retries: 1}, true},
		{"quarantine only", pipeline.Report{Quarantined: []pipeline.ChunkFailure{{}}}, true},
	} {
		p := newProfile()
		p.addReport(&tc.rep)
		if p.Degraded() != tc.want {
			t.Errorf("%s: Degraded() = %v, want %v", tc.name, p.Degraded(), tc.want)
		}
	}
}

// TestReusedEngineFaultDelta pins the cumulative-log fix: a simulator engine
// reused for a second run must attribute to that run only the faults it
// fired, not the injector's whole history.
func TestReusedEngineFaultDelta(t *testing.T) {
	asm := testAssembly(t, 7, []int{600, 300}, testSite)
	req := testRequest(2)
	for _, se := range simEngines() {
		t.Run(se.name, func(t *testing.T) {
			plan := fault.Plan{Seed: 1234, Rate: 0.3}
			eng := se.build(plan, &pipeline.Resilience{Seed: plan.Seed, Watchdog: 500 * time.Millisecond})
			if _, err := eng.Run(asm, req); err != nil {
				t.Fatalf("run 1: %v", err)
			}
			log1 := append([]fault.Event(nil), eng.(Profiler).LastProfile().FaultLog...)
			if len(log1) == 0 {
				t.Fatal("run 1 fired no faults; rate too low for the test to mean anything")
			}
			if _, err := eng.Run(asm, req); err != nil {
				t.Fatalf("run 2: %v", err)
			}
			log2 := eng.(Profiler).LastProfile().FaultLog

			var dev *gpu.Device
			switch e := eng.(type) {
			case *SimCL:
				dev = e.Device
			case *SimSYCL:
				dev = e.Device
			}
			cumulative := dev.Faults().Log()
			if len(log2) == len(cumulative) && len(log1) > 0 {
				t.Fatalf("run 2 profile carries the injector's cumulative log (%d events); want only run 2's delta", len(log2))
			}
			if got, want := len(log1)+len(log2), len(cumulative); got != want {
				t.Errorf("run deltas sum to %d events, injector fired %d", got, want)
			}
			for _, e := range log2 {
				for _, e1 := range log1 {
					if e == e1 {
						t.Fatalf("run 2 log re-reports run 1 event %+v", e)
					}
				}
			}
		})
	}
}

// requireMetricsAgree asserts the registry holds exactly the sum of what the
// runs' profiles show — every twin series, the fault sites and the selected
// variants. Profile.publish is the only writer of these series, so a run that
// published twice, not at all, or before its last write shows up here.
func requireMetricsAgree(t *testing.T, m *obs.Metrics, runs ...*Profile) {
	t.Helper()
	want := map[string]int64{}
	for _, p := range runs {
		var tuneDecisions, tuneCandidates int64
		if p.Tune != nil {
			tuneDecisions, tuneCandidates = 1, int64(len(p.Tune.Candidates))
			want[obs.L(obs.MetricTuneSelected, "variant", p.Tune.Variant.String())]++
		}
		for name, v := range map[string]int64{
			obs.MetricChunks:          int64(p.Chunks),
			obs.MetricStagedBytes:     p.BytesStaged,
			obs.MetricReadBytes:       p.BytesRead,
			obs.MetricCandidateSites:  p.CandidateSites,
			obs.MetricEntries:         p.Entries,
			obs.MetricRetries:         p.Retries,
			obs.MetricFailovers:       p.Failovers,
			obs.MetricWatchdogKills:   p.WatchdogKills,
			obs.MetricQuarantined:     int64(p.QuarantinedChunks),
			obs.MetricAsyncExceptions: p.AsyncExceptions,
			obs.MetricTuneDecisions:   tuneDecisions,
			obs.MetricTuneCandidates:  tuneCandidates,
			// Arena accounting must survive the fault paths too: a Find that
			// rejects a corrupted count readback records the readback (and any
			// arena provisioning before it) before rejecting.
			obs.MetricArenaBytes:     p.ArenaBytes,
			obs.MetricArenaPages:     p.ArenaPageClaims,
			obs.MetricArenaOverflows: p.OverflowRetries,
		} {
			want[name] += v
		}
		for site, n := range p.Faults {
			want[obs.L(obs.MetricFaults, "site", string(site))] += n
		}
	}
	snap := m.Snapshot()
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("counter %s = %d, profiles say %d", name, got, v)
		}
	}
	for name, got := range snap.Counters {
		if _, ok := want[name]; !ok && (strings.HasPrefix(name, obs.MetricFaults) || strings.HasPrefix(name, obs.MetricTuneSelected)) {
			t.Errorf("counter %s = %d, no profile shows it", name, got)
		}
	}
}

// TestMetricsAgreeWithProfile is the acceptance check for the one
// accounting: on a seeded fault run of every engine the metrics registry and
// the engine profile must report the same totals. The CPU engine has neither
// a device nor a profile; it must come out clean.
func TestMetricsAgreeWithProfile(t *testing.T) {
	asm := testAssembly(t, 7, []int{600, 300}, testSite)
	req := testRequest(2)
	plan := fault.Plan{Seed: 1234, Rate: 0.3}
	faulty := func(seed uint64) *gpu.Device {
		dev := gpu.New(device.MI100(), gpu.WithWorkers(4))
		dev.SetFaults(fault.NewInjector(fault.Plan{Seed: seed, Rate: plan.Rate}))
		return dev
	}
	res := &pipeline.Resilience{Seed: plan.Seed, Watchdog: 500 * time.Millisecond}
	for _, mk := range []func(m *obs.Metrics) Engine{
		func(m *obs.Metrics) Engine { return &CPU{Workers: 2, Metrics: m} },
		func(m *obs.Metrics) Engine {
			return &SimCL{Device: faulty(plan.Seed), Variant: kernels.Base, Resilience: res, Metrics: m}
		},
		func(m *obs.Metrics) Engine {
			return &SimSYCL{Device: faulty(plan.Seed), Variant: kernels.Base, WorkGroupSize: 64, Resilience: res, Metrics: m}
		},
	} {
		m := obs.NewMetrics()
		eng := mk(m)
		t.Run(eng.Name(), func(t *testing.T) {
			hits, err := eng.Run(asm, req)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := m.Snapshot().Counters[obs.MetricHits]; got != int64(len(hits)) {
				t.Errorf("hits counter = %d, run returned %d", got, len(hits))
			}
			p := newProfile()
			if pr, ok := eng.(Profiler); ok {
				p = pr.LastProfile()
				if p.Retries == 0 && p.Failovers == 0 {
					t.Fatal("run was not degraded; raise the fault rate for the test to mean anything")
				}
			}
			requireMetricsAgree(t, m, p)
		})
	}
}

// TestLastProfileNeverStale reuses one engine across a good run, every early
// failure and a mid-run cancel: LastProfile is always the run that just
// returned — empty when the run failed before its executor started, the
// partial totals when it was cancelled — and the registry shared by the runs
// holds exactly the sum of what each profile showed.
func TestLastProfileNeverStale(t *testing.T) {
	asm := testAssembly(t, 7, []int{1500, 900, 600}, testSite)
	req := testRequest(2)
	newDev := func() *gpu.Device { return gpu.New(device.MI100(), gpu.WithWorkers(2)) }
	// A device that fits none of the tuner's work-group sizes fails the
	// autotune step.
	untunable := device.MI100()
	untunable.MaxWorkGroupSize = 32
	for _, tc := range []struct {
		name string
		// build returns the engine and the device slot the failures turn.
		build func(m *obs.Metrics) (eng arenaProfiler, dev **gpu.Device)
	}{
		{"opencl", func(m *obs.Metrics) (arenaProfiler, **gpu.Device) {
			e := &SimCL{Device: newDev(), Auto: true, Metrics: m}
			return e, &e.Device
		}},
		{"sycl", func(m *obs.Metrics) (arenaProfiler, **gpu.Device) {
			e := &SimSYCL{Device: newDev(), Auto: true, Metrics: m}
			return e, &e.Device
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := obs.NewMetrics()
			eng, dev := tc.build(m)
			good := *dev
			var shown []*Profile
			for _, run := range []struct {
				name   string
				before func()
				req    *Request
				cancel bool
				early  bool
			}{
				{name: "good", req: req},
				{name: "nil device", before: func() { *dev = nil }, req: req, early: true},
				{name: "autotune error", before: func() { *dev = gpu.New(untunable, gpu.WithWorkers(2)) }, req: req, early: true},
				{name: "invalid request", req: &Request{Pattern: "NGG"}, early: true},
				{name: "cancelled", req: req, cancel: true},
				{name: "good again", req: req},
			} {
				*dev = good
				if run.before != nil {
					run.before()
				}
				ctx, cancel := context.WithCancel(context.Background())
				err := eng.Stream(ctx, asm, run.req, func(Hit) error {
					if run.cancel {
						cancel()
					}
					return nil
				})
				cancel()
				p := eng.LastProfile()
				shown = append(shown, p)
				switch {
				case run.early:
					if err == nil {
						t.Errorf("%s: run succeeded", run.name)
					}
					if !reflect.DeepEqual(p, newProfile()) {
						t.Errorf("%s: LastProfile() = %+v, want an empty profile", run.name, p)
					}
				case run.cancel:
					if !errors.Is(err, context.Canceled) {
						t.Errorf("%s: err = %v, want context.Canceled", run.name, err)
					}
					if p == shown[0] || p.Chunks == 0 {
						t.Errorf("%s: LastProfile() = %p with %d chunks staged, want this run's own (the good run's was %p)",
							run.name, p, p.Chunks, shown[0])
					}
				default:
					if err != nil {
						t.Fatalf("%s: %v", run.name, err)
					}
					if p.Entries == 0 || p.Entries != shown[0].Entries {
						t.Errorf("%s: %d entries, first good run had %d", run.name, p.Entries, shown[0].Entries)
					}
				}
			}
			requireMetricsAgree(t, m, shown...)
		})
	}
}
