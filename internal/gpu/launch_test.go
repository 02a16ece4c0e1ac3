package gpu

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu/device"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	return New(device.MI100(), WithWorkers(4))
}

// perItem is a barrier-free kernel: one phase that runs body for every
// work-item of the group.
func perItem(body func(it *Item)) PhaseKernel {
	return func() []Phase {
		return []Phase{func(g *Group) { g.Each(body) }}
	}
}

// TestLaunchCoversGlobalIDs checks that every global ID in a 1-D range is
// visited exactly once and that local/group coordinates are consistent.
func TestLaunchCoversGlobalIDs(t *testing.T) {
	d := testDevice(t)
	const global, local = 1024, 64
	seen := make([]int32, global)
	var bad sync.Map
	_, err := d.Launch(LaunchSpec{
		Name:   "cover",
		Global: R1(global),
		Local:  R1(local),
		Phases: perItem(func(it *Item) {
			gid := it.GlobalID(0)
			if gid != it.GroupID(0)*it.LocalRange(0)+it.LocalID(0) {
				bad.Store(gid, "coordinate mismatch")
			}
			if it.GlobalRange(0) != global || it.LocalRange(0) != local {
				bad.Store(gid, "range mismatch")
			}
			if it.GroupRange(0) != global/local {
				bad.Store(gid, "group range mismatch")
			}
			seen[gid]++ // unique index per item: no race
		}),
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	bad.Range(func(k, v any) bool {
		t.Errorf("item %v: %v", k, v)
		return true
	})
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("global ID %d visited %d times", i, n)
		}
	}
}

func TestLaunch3D(t *testing.T) {
	d := testDevice(t)
	const x, y, z = 8, 6, 4
	seen := make([]int32, x*y*z)
	_, err := d.Launch(LaunchSpec{
		Name:   "cover3d",
		Global: R3(x, y, z),
		Local:  R3(4, 3, 2),
		Phases: perItem(func(it *Item) {
			idx := it.GlobalID(0) + x*(it.GlobalID(1)+y*it.GlobalID(2))
			seen[idx]++
		}),
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("linear ID %d visited %d times", i, n)
		}
	}
}

// TestBarrierLeaderPrefetch reproduces the exact pattern of the paper's
// kernels on a launch small enough to run inline on the calling goroutine:
// the first work-item of each group fills shared local memory, a barrier —
// the phase boundary — follows, then every item reads the shared data.
// Without barrier semantics some item would observe another group's values.
func TestBarrierLeaderPrefetch(t *testing.T) {
	d := testDevice(t)
	const groups, local = 32, 64
	results := make([]int32, groups*local)
	stats, err := d.Launch(LaunchSpec{
		Name:   "prefetch",
		Global: R1(groups * local),
		Local:  R1(local),
		Phases: func() []Phase {
			shared := make([]int32, local) // work-group local memory
			return []Phase{
				func(g *Group) {
					g.Each(func(it *Item) {
						if it.GlobalID(0)-it.GroupID(0)*it.LocalRange(0) == 0 {
							for k := range shared {
								shared[k] = int32(100*it.GroupID(0) + k)
							}
						}
					})
				},
				func(g *Group) {
					g.Each(func(it *Item) { results[it.GlobalID(0)] = shared[it.LocalID(0)] })
				},
			}
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for gid, v := range results {
		if want := int32(100*(gid/local) + gid%local); v != want {
			t.Fatalf("item %d read %d, want %d (barrier visibility broken)", gid, v, want)
		}
	}
	if stats.Barriers != groups*local {
		t.Errorf("Barriers = %d, want %d (one per item per phase boundary)", stats.Barriers, groups*local)
	}
}

// TestBarrierMultiplePhases stresses a kernel with many barriers: after
// each one every item of the group must see all arrivals of the phase
// before it, in every group a worker runs.
func TestBarrierMultiplePhases(t *testing.T) {
	d := testDevice(t)
	const groups, local, barriers = 128, 32, 9
	var bad atomic.Int32
	stats, err := d.Launch(LaunchSpec{
		Name:   "phases",
		Global: R1(groups * local),
		Local:  R1(local),
		Phases: func() []Phase {
			progress := make([]int32, barriers+1)
			phases := make([]Phase, barriers+1)
			for p := range phases {
				phases[p] = func(g *Group) {
					g.Each(func(it *Item) {
						if p > 0 && progress[p-1] != local {
							bad.Add(1)
						}
						progress[p]++
					})
					if p > 0 {
						progress[p-1] = 0 // consumed: the next group starts clean
					}
					if p == barriers {
						progress[p] = 0
					}
				}
			}
			return phases
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if n := bad.Load(); n != 0 {
		t.Errorf("%d items saw incomplete arrivals after a barrier", n)
	}
	if want := int64(barriers * groups * local); stats.Barriers != want {
		t.Errorf("Barriers = %d, want %d", stats.Barriers, want)
	}
}

// TestAtomicCompaction verifies that atomic increments hand out unique,
// dense slots — the output-compaction idiom of the comparer kernel.
func TestAtomicCompaction(t *testing.T) {
	d := testDevice(t)
	const n = 2048
	var count uint32
	slots := make([]int32, n)
	_, err := d.Launch(LaunchSpec{
		Name:   "compact",
		Global: R1(n),
		Local:  R1(128),
		Phases: perItem(func(it *Item) {
			if it.GlobalID(0)%3 == 0 { // a third of the items "match"
				old := it.AtomicIncUint32(&count)
				slots[old] = int32(it.GlobalID(0))
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
		if v%3 != 0 {
			t.Fatalf("slot %d holds non-matching item %d", i, v)
		}
		if seen[v] {
			t.Fatalf("item %d stored twice", v)
		}
		seen[v] = true
	}
}

func TestAtomicAdd(t *testing.T) {
	d := testDevice(t)
	var sum uint32
	_, err := d.Launch(LaunchSpec{
		Name:   "add",
		Global: R1(256),
		Local:  R1(64),
		Phases: perItem(func(it *Item) { it.AtomicAddUint32(&sum, 2) }),
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if sum != 512 {
		t.Errorf("sum = %d, want 512", sum)
	}
}

func TestLaunchStats(t *testing.T) {
	d := testDevice(t)
	const global, local = 512, 64
	stats, err := d.Launch(LaunchSpec{
		Name:   "stats",
		Global: R1(global),
		Local:  R1(local),
		Phases: func() []Phase {
			return []Phase{
				func(g *Group) {
					g.Each(func(it *Item) {
						it.LoadGlobal(4)
						it.LoadGlobal(1)
						it.StoreGlobal(4)
						it.LoadConstant()
						it.LoadLocal()
						it.StoreLocal()
						it.ALU(3)
						it.Branch(true)
						it.Branch(false)
					})
				},
				func(g *Group) {}, // a closing barrier
			}
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	n := int64(global)
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"WorkItems", stats.WorkItems, n},
		{"WorkGroups", stats.WorkGroups, global / local},
		{"GlobalLoadOps", stats.GlobalLoadOps, 2 * n},
		{"GlobalLoadBytes", stats.GlobalLoadBytes, 5 * n},
		{"GlobalStoreOps", stats.GlobalStoreOps, n},
		{"GlobalStoreBytes", stats.GlobalStoreBytes, 4 * n},
		{"ConstantLoadOps", stats.ConstantLoadOps, n},
		{"LocalLoadOps", stats.LocalLoadOps, n},
		{"LocalStoreOps", stats.LocalStoreOps, n},
		{"ALUOps", stats.ALUOps, 3 * n},
		{"Branches", stats.Branches, 2 * n},
		{"DivergentBranches", stats.DivergentBranches, n},
		{"Barriers", stats.Barriers, n},
		{"GlobalBytes", stats.GlobalBytes(), 9 * n},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if stats.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestLaunchErrors(t *testing.T) {
	d := testDevice(t)
	nop := perItem(func(it *Item) {})
	tests := []struct {
		name    string
		spec    LaunchSpec
		wantErr error
	}{
		{"nil kernel", LaunchSpec{Name: "k", Global: R1(64), Local: R1(64)}, nil},
		{"bad divide", LaunchSpec{Name: "k", Global: R1(100), Local: R1(64), Phases: nop}, ErrLocalSize},
		{"oversized group", LaunchSpec{Name: "k", Global: R1(4096), Local: R1(4096), Phases: nop}, ErrWorkGroupTooLarge},
		{"zero range", LaunchSpec{Name: "k", Phases: nop}, ErrInvalidRange},
		{"huge lds", LaunchSpec{Name: "k", Global: R1(64), Local: R1(64), Phases: nop, LDSBytesPerWG: 1 << 20}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := d.Launch(tt.spec)
			if err == nil {
				t.Fatal("Launch = nil error, want failure")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("Launch error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestGroupContext(t *testing.T) {
	d := testDevice(t)
	const groups = 8
	linears := make([]int32, groups)
	_, err := d.Launch(LaunchSpec{
		Name:   "groups",
		Global: R1(groups * 16),
		Local:  R1(16),
		Phases: func() []Phase {
			return []Phase{func(g *Group) {
				if g.Device() != d {
					t.Error("Group.Device mismatch")
				}
				if g.LocalRange(0) != 16 || g.Size() != 16 {
					t.Errorf("Group.LocalRange = %d, Size = %d", g.LocalRange(0), g.Size())
				}
				if g.ID(0) != g.Linear() || g.Base() != 16*g.Linear() {
					t.Errorf("1-D group: ID(0)=%d, Linear()=%d, Base()=%d", g.ID(0), g.Linear(), g.Base())
				}
				linears[g.Linear()]++ // unique index per group: no race
			}}
		},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for i, n := range linears {
		if n != 1 {
			t.Errorf("group %d ran %d times", i, n)
		}
	}
}

func TestItemOutOfRangeDims(t *testing.T) {
	d := testDevice(t)
	_, err := d.Launch(LaunchSpec{
		Name:   "dims",
		Global: R1(4),
		Local:  R1(4),
		Phases: perItem(func(it *Item) {
			if it.GlobalID(5) != 0 || it.LocalID(-1) != 0 || it.GroupID(7) != 0 {
				t.Error("out-of-range dims should be 0")
			}
			if it.GlobalRange(2) != 1 || it.GroupRange(2) != 1 || it.GroupRange(-1) != 1 {
				t.Error("out-of-range range dims should be 1")
			}
		}),
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
}

// TestConcurrentLaunches stresses the device with parallel kernel launches
// from many goroutines; the launch log and results must stay consistent.
func TestConcurrentLaunches(t *testing.T) {
	d := New(device.MI100(), WithWorkers(4))
	const launchers = 8
	var wg sync.WaitGroup
	results := make([][]int32, launchers)
	wg.Add(launchers)
	for l := 0; l < launchers; l++ {
		go func(l int) {
			defer wg.Done()
			out := make([]int32, 512)
			_, err := d.Launch(LaunchSpec{
				Name:   "stress",
				Global: R1(512),
				Local:  R1(64),
				Phases: perItem(func(it *Item) {
					out[it.GlobalID(0)] = int32(l*1000 + it.GlobalID(0))
				}),
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
				t.Fatalf("launcher %d: out[%d] = %d", l, i, v)
			}
		}
	}
}

// TestConcurrentAlloc stresses the memory accounting with parallel
// allocate/free cycles.
func TestConcurrentAlloc(t *testing.T) {
	d := New(device.RadeonVII())
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a, err := d.Alloc(GlobalMem, 1<<20)
				if err != nil {
					t.Error(err)
					return
				}
				if err := a.Free(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.AllocatedBytes() != 0 {
		t.Errorf("leaked %d bytes", d.AllocatedBytes())
	}
}

// TestInjectedHangNeedsDeadline: an injected hang parks only on a launch
// context that carries a deadline. Under a cancellable context with no
// deadline nothing could ever reap it, so the launch fails at once with the
// transient SiteHang fault; under a deadline it blocks until the deadline.
func TestInjectedHangNeedsDeadline(t *testing.T) {
	hang := func(ctx context.Context) error {
		d := testDevice(t)
		d.SetFaults(fault.NewInjector(fault.Plan{Rate: 1, Site: fault.SiteHang}))
		_, err := d.Launch(LaunchSpec{Name: "k", Global: R1(64), Local: R1(64), Phases: perItem(func(*Item) {}), Ctx: ctx})
		var fe *fault.Error
		if !errors.As(err, &fe) || fe.Site != fault.SiteHang || fe.Class != fault.Transient {
			t.Fatalf("err = %v, want a transient %s fault", err, fault.SiteHang)
		}
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	hang(ctx)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline-free hang took %v, want an immediate failure", elapsed)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer dcancel()
	if err := hang(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("hang under a deadline: err = %v, want it parked until the deadline", err)
	}
}
