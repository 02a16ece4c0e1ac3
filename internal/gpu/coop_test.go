package gpu

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casoffinder/internal/gpu/device"
)

// TestPhasesLeaderPrefetch is TestBarrierLeaderPrefetch sized past the
// inline-launch threshold, so several workers race over the groups, each
// with its own local memory.
func TestPhasesLeaderPrefetch(t *testing.T) {
	d := testDevice(t)
	const groups, local = 128, 64
	results := make([]int32, groups*local)
	_, err := d.Launch(LaunchSpec{
		Name:   "prefetch_phases",
		Global: groups * local,
		Local:  local,
		Phases: func() []Phase {
			shared := make([]int32, local) // reused across the worker's groups
			return []Phase{
				func(g *Group) {
					for k := range shared {
						shared[k] = int32(g.ID()*1000 + k)
					}
				},
				func(g *Group) {
					copy(results[g.Base():g.Base()+g.Size()], shared)
				},
			}
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for gid, v := range results {
		if want := int32((gid/local)*1000 + gid%local); v != want {
			t.Fatalf("item %d read %d, want %d (phase barrier visibility broken)", gid, v, want)
		}
	}
}

// TestBarrierFreeCoverage checks that a barrier-free kernel — one phase, a
// per-item loop — visits every global ID exactly once, with enough items to
// spill past the inline-launch threshold.
func TestBarrierFreeCoverage(t *testing.T) {
	d := testDevice(t)
	const global, local = 8192, 64
	seen := make([]int32, global)
	_, err := d.Launch(LaunchSpec{
		Name:   "cover_coop",
		Global: global,
		Local:  local,
		Phases: func() []Phase {
			return []Phase{func(g *Group) {
				g.Each(func(it *Item) {
					gid := it.GlobalID()
					if gid != it.GroupID()*it.LocalRange()+it.LocalID() || gid != g.Base()+it.LocalID() {
						t.Errorf("item %d: coordinate mismatch", gid)
					}
					seen[gid]++ // unique index per item: no race
				})
			}}
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("global ID %d visited %d times", i, n)
		}
	}
}

// TestPhasesStatsParity counts the same kernel two ways — a hook call per
// access on every work-item, and once per group with the per-item cost
// scaled by the group size — and requires identical Stats, barrier counts
// included: the timing model prices launches off these counters, so how a
// kernel accounts must not change them.
func TestPhasesStatsParity(t *testing.T) {
	d := testDevice(t)
	const global, local = 4096, 64
	stage := func(s *Stats) {
		s.ALU(2)
		s.LoadGlobal(4)
		s.StoreLocal()
	}
	scan := func(s *Stats, diverged bool) {
		s.LoadLocal()
		s.Branch(diverged)
		s.StoreGlobal(4)
	}
	perAccess, err := d.Launch(LaunchSpec{
		Name: "parity_items", Global: global, Local: local,
		Phases: func() []Phase {
			return []Phase{
				func(g *Group) { g.Each(func(it *Item) { stage(it.Stats) }) },
				func(g *Group) { g.Each(func(it *Item) { scan(it.Stats, it.GlobalID()%2 == 0) }) },
			}
		},
	})
	if err != nil {
		t.Fatalf("per-access Launch: %v", err)
	}
	var stageCost, even, odd Stats
	stage(&stageCost)
	scan(&even, true)
	scan(&odd, false)
	perGroup, err := d.Launch(LaunchSpec{
		Name: "parity_groups", Global: global, Local: local,
		Phases: func() []Phase {
			return []Phase{
				func(g *Group) { g.Stats().AddScaled(&stageCost, int64(g.Size())) },
				func(g *Group) {
					g.Stats().AddScaled(&even, int64(g.Size()/2))
					g.Stats().AddScaled(&odd, int64(g.Size()/2))
				},
			}
		},
	})
	if err != nil {
		t.Fatalf("per-group Launch: %v", err)
	}
	if *perAccess != *perGroup {
		t.Errorf("stats diverge:\nper access = %+v\nper group  = %+v", *perAccess, *perGroup)
	}
	if perGroup.Barriers != global {
		t.Errorf("Barriers = %d, want %d (one per item per phase boundary)", perGroup.Barriers, global)
	}
}

// TestPhaseFactoryPerWorker checks the PhaseKernel contract: the factory
// runs once per worker, not once per group, so its local allocations are
// pooled across groups.
func TestPhaseFactoryPerWorker(t *testing.T) {
	const workers = 4
	d := New(device.MI100(), WithWorkers(workers))
	const groups, local = 256, 64
	var calls atomic.Int32
	_, err := d.Launch(LaunchSpec{
		Name:   "factory_count",
		Global: groups * local,
		Local:  local,
		Phases: func() []Phase {
			calls.Add(1)
			return []Phase{func(g *Group) {}}
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if n := int(calls.Load()); n < 1 || n > workers {
		t.Errorf("factory ran %d times, want between 1 and %d (once per worker)", n, workers)
	}
}

// TestPhasesAtomicCompaction reruns the comparer's output-compaction idiom
// with several workers claiming slots at once.
func TestPhasesAtomicCompaction(t *testing.T) {
	d := testDevice(t)
	const n = 8192
	var count uint32
	slots := make([]int32, n)
	_, err := d.Launch(LaunchSpec{
		Name:   "compact_coop",
		Global: n,
		Local:  128,
		Phases: perItem(func(it *Item) {
			if it.GlobalID()%3 == 0 {
				old := it.AtomicIncUint32(&count)
				slots[old] = int32(it.GlobalID())
			}
		}),
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	want := uint32((n + 2) / 3)
	if count != want {
		t.Fatalf("count = %d, want %d", count, want)
	}
	seen := make(map[int32]bool)
	for i := uint32(0); i < count; i++ {
		v := slots[i]
		if v%3 != 0 || seen[v] {
			t.Fatalf("slot %d holds bad or duplicate item %d", i, v)
		}
		seen[v] = true
	}
}

// TestLaunchSpecValidation covers the launch errors of a mis-shaped or
// panicking kernel: each must come back from Launch as an error — on the
// inline path, on one worker and on several — and leave no goroutine behind.
func TestLaunchSpecValidation(t *testing.T) {
	nop := func(g *Group) {}
	cases := []struct {
		name, want string
		kernel     PhaseKernel
	}{
		{"no phases returned", "no phases", func() []Phase { return nil }},
		{"nil phase", "nil phase 1", func() []Phase { return []Phase{nop, nil} }},
		{"panicking phase", "panicked: boom", func() []Phase {
			return []Phase{nop, func(g *Group) {
				if g.ID()%7 == 3 {
					panic("boom")
				}
			}}
		}},
		{"panicking factory", "panicked: no kernel", func() []Phase { panic("no kernel") }},
	}
	shapes := []struct {
		name            string
		workers, groups int
	}{{"inline", 4, 16}, {"one worker", 1, 256}, {"four workers", 4, 256}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, sh := range shapes {
				before := runtime.NumGoroutine()
				d := New(device.MI100(), WithWorkers(sh.workers))
				stats, err := d.Launch(LaunchSpec{Name: "k", Global: sh.groups * 64, Local: 64, Phases: tc.kernel})
				if err == nil || stats != nil {
					t.Fatalf("%s: Launch = %v, %v; want a launch error", sh.name, stats, err)
				}
				if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), `launch "k"`) {
					t.Errorf("%s: error %q does not name the launch and %q", sh.name, err, tc.want)
				}
				// Launch waits for its workers to finish; give the last of
				// them a moment to be reaped after its final instruction.
				after := runtime.NumGoroutine()
				for i := 0; i < 200 && after > before; i++ {
					time.Sleep(time.Millisecond)
					after = runtime.NumGoroutine()
				}
				if after > before {
					t.Errorf("%s: %d goroutines before the launch, %d after", sh.name, before, after)
				}
			}
		})
	}
}

// TestConcurrentCooperativeLaunches stresses the scheduler with parallel
// launches the way the out-of-order frontends drive it.
func TestConcurrentCooperativeLaunches(t *testing.T) {
	d := New(device.MI100(), WithWorkers(4))
	const launchers = 8
	var wg sync.WaitGroup
	results := make([][]int32, launchers)
	wg.Add(launchers)
	for l := 0; l < launchers; l++ {
		go func(l int) {
			defer wg.Done()
			out := make([]int32, 4096)
			_, err := d.Launch(LaunchSpec{
				Name:   "stress_coop",
				Global: 4096,
				Local:  64,
				Phases: func() []Phase {
					shared := make([]int32, 64)
					return []Phase{
						func(g *Group) {
							for k := range shared {
								shared[k] = int32(l * 1000)
							}
						},
						func(g *Group) {
							g.Each(func(it *Item) {
								out[it.GlobalID()] = shared[it.LocalID()] + int32(it.GlobalID())
							})
						},
					}
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[l] = out
		}(l)
	}
	wg.Wait()
	for l, out := range results {
		for i, v := range out {
			if v != int32(l*1000+i) {
				t.Fatalf("launcher %d: out[%d] = %d, want %d", l, i, v, l*1000+i)
			}
		}
	}
}
