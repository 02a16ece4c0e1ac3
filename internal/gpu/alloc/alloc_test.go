package alloc

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

func testDevice() *gpu.Device {
	return gpu.New(device.MI100(), gpu.WithWorkers(4))
}

// perItem is a barrier-free kernel: one phase that runs body for every
// work-item of the group, by global index.
func perItem(body func(g *gpu.Group, gid int)) gpu.PhaseKernel {
	return func() []gpu.Phase {
		return []gpu.Phase{func(g *gpu.Group) {
			for li := range g.Size() {
				body(g, g.Base()+li)
			}
		}}
	}
}

// newArena returns a fresh claim state at l and the Device bound over it.
func newArena(t testing.TB, l Layout) ([]uint32, *Device) {
	t.Helper()
	state := l.NewState()
	d, err := Bind(l.PageSlots, l.Pages, state)
	if err != nil {
		t.Fatal(err)
	}
	return state, d
}

func TestLayoutConstructors(t *testing.T) {
	w := WorstCase(10, 64)
	if w.Pages != 10 || w.PageSlots != 64 || w.Groups != 10 {
		t.Fatalf("WorstCase(10, 64) = %+v", w)
	}
	if w.Slots() != 640 || w.DataBytes(5) != 3200 {
		t.Errorf("Slots = %d, DataBytes(5) = %d", w.Slots(), w.DataBytes(5))
	}
	if w.MetaBytes() != 8*10+8 {
		t.Errorf("MetaBytes = %d, want %d", w.MetaBytes(), 8*10+8)
	}
	if z := WorstCase(0, 64); z.Pages != 1 || z.Groups != 1 {
		t.Errorf("WorstCase clamps zero groups to one: %+v", z)
	}

	// SizedPages clamps to [1, worst case].
	if s := SizedPages(3, 10, 64); s.Pages != 3 || s.Groups != 10 {
		t.Errorf("SizedPages(3) = %+v", s)
	}
	if s := SizedPages(0, 10, 64); s.Pages != 1 {
		t.Errorf("SizedPages(0) = %+v, want one page", s)
	}
	if s := SizedPages(99, 10, 64); s.Pages != 10 {
		t.Errorf("SizedPages(99) = %+v, want worst-case cap", s)
	}
}

// TestRefit pins the relaunch rule: one page per group whose emission
// counter is non-zero, and ok=false whenever the counters call for no more
// pages than the overflowed launch had — an overflow the counters cannot
// explain is corrupted state, never a reason to relaunch.
func TestRefit(t *testing.T) {
	l := SizedPages(4, 13, 64)
	count := []uint32{3, 0, 1, 64, 0, 2, 9, 0, 0, 1, 5, 0, 7} // 8 emitting groups
	next, ok := Refit(l, count)
	if !ok || next.Pages != 8 || next.Groups != 13 || next.PageSlots != 64 {
		t.Fatalf("Refit = %+v, %v; want 8 pages of 64 slots over 13 groups", next, ok)
	}
	for _, tt := range []struct {
		name  string
		l     Layout
		count []uint32
	}{
		{"all zero", l, make([]uint32, 13)},
		{"fewer emitters than pages", l, []uint32{1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"as many emitters as pages", l, []uint32{1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"worst case", WorstCase(3, 64), []uint32{1, 1, 1}},
		{"short counter table", l, []uint32{1, 1, 1, 1, 1}},
	} {
		if got, ok := Refit(tt.l, tt.count); ok || got != tt.l {
			t.Errorf("%s: Refit = %+v, %v; want the layout back and ok=false", tt.name, got, ok)
		}
	}
}

// TestClaimCompactsSparseEmissions launches a kernel where only a minority
// of groups emit, into an arena provisioned below one-page-per-group, and
// checks the full round trip: no overflow, Decode geometry matches the
// emission pattern, and Gather recovers exactly the emitted values.
func TestClaimCompactsSparseEmissions(t *testing.T) {
	const (
		groups    = 16
		wg        = 64
		pageSlots = wg
	)
	// Groups 3, 7 and 11 emit: every 4th item in group 3 and 11, every item
	// in group 7.
	emits := func(group, local int) bool {
		switch group {
		case 3, 11:
			return local%4 == 0
		case 7:
			return true
		}
		return false
	}
	layout := SizedPages(4, groups, pageSlots)
	state, dev := newArena(t, layout)
	data := make([]uint32, layout.Slots())
	if _, err := testDevice().Launch(gpu.LaunchSpec{
		Name:   "emit",
		Global: groups * wg,
		Local:  wg,
		Phases: perItem(func(g *gpu.Group, gid int) {
			if !emits(g.ID(), gid-g.Base()) {
				return
			}
			slot := dev.Claim(g)
			if slot < 0 {
				return
			}
			data[slot] = uint32(gid)
		}),
	}); err != nil {
		t.Fatal(err)
	}
	if *dev.Overflow != 0 {
		t.Fatalf("overflow = %d on a sufficient arena", *dev.Overflow)
	}
	geo, err := Decode(layout.PageSlots, layout.Pages, state)
	if err != nil {
		t.Fatal(err)
	}
	if geo.Claimed != 3 {
		t.Fatalf("claimed %d pages, want 3 (one per emitting group)", geo.Claimed)
	}
	wantTotal := wg/4 + wg + wg/4
	if geo.Total != wantTotal {
		t.Fatalf("decoded %d entries, want %d", geo.Total, wantTotal)
	}
	got := Gather(geo, data, nil)
	var want []uint32
	for g := 0; g < groups; g++ {
		for l := 0; l < wg; l++ {
			if emits(g, l) {
				want = append(want, uint32(g*wg+l))
			}
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("gathered %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry set diverges at %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestGatherWalksGroupOrder hands Decode a page table the cursor race
// permuted — group 0 won page 2, group 1 page 0, group 2 page 1 — and
// requires Gather to concatenate the pages by owning group, not by page
// number: the gathered order must not depend on who won the race.
func TestGatherWalksGroupOrder(t *testing.T) {
	const pageSlots = 4
	count := []uint32{2, 1, 3}
	pageOf := []uint32{2, 0, 1}
	geo, err := Decode(pageSlots, 3, slices.Concat([]uint32{0, 3}, count, pageOf))
	if err != nil {
		t.Fatal(err)
	}
	// Each page holds its owner's entries, tagged 10×group + slot.
	data := make([]uint32, 3*pageSlots)
	for grp, p := range pageOf {
		for i := 0; i < int(count[grp]); i++ {
			data[int(p)*pageSlots+i] = uint32(10*grp + i)
		}
	}
	got := Gather(geo, data, nil)
	want := []uint32{0, 1, 10, 20, 21, 22}
	if len(got) != len(want) {
		t.Fatalf("gathered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gathered %v, want %v (group order)", got, want)
		}
	}
}

// TestClaimOverflowRefitRetry drives the full host loop the backends run,
// bounded at two attempts: an under-provisioned launch overflows (counted,
// entries dropped, no corruption), its read-back emission counters size the
// relaunch exactly, and the relaunch recovers every entry.
func TestClaimOverflowRefitRetry(t *testing.T) {
	const (
		groups    = 8
		wg        = 32
		pageSlots = wg
	)
	// Five of the eight groups emit, every item of each.
	emits := func(group int) bool { return group%3 != 1 }
	layout := SizedPages(1, groups, pageSlots)
	d := testDevice()
	for attempt := 0; attempt < 2; attempt++ {
		state, dev := newArena(t, layout)
		data := make([]uint32, layout.Slots())
		if _, err := d.Launch(gpu.LaunchSpec{
			Name:   "emit-some",
			Global: groups * wg,
			Local:  wg,
			Phases: perItem(func(g *gpu.Group, gid int) {
				if !emits(g.ID()) {
					return
				}
				if slot := dev.Claim(g); slot >= 0 {
					data[slot] = uint32(gid) + 1
				}
			}),
		}); err != nil {
			t.Fatal(err)
		}
		if *dev.Overflow == 0 {
			if attempt == 0 {
				t.Fatal("one page for five emitting groups did not overflow")
			}
			geo, err := Decode(layout.PageSlots, layout.Pages, state)
			if err != nil {
				t.Fatal(err)
			}
			if geo.Claimed != 5 || geo.Total != 5*wg {
				t.Fatalf("recovered %d entries on %d pages, want %d on 5", geo.Total, geo.Claimed, 5*wg)
			}
			for _, v := range Gather(geo, data, nil) {
				if v == 0 {
					t.Fatal("gathered an unwritten slot")
				}
			}
			return
		}
		next, ok := Refit(layout, layout.CountWords().Of(state))
		if !ok {
			t.Fatalf("attempt %d overflowed at %v, which its counters say fits", attempt, layout)
		}
		if next.Pages != 5 {
			t.Fatalf("Refit sized the relaunch at %d pages, want one per emitting group (5)", next.Pages)
		}
		layout = next
	}
	t.Fatal("the relaunch at Refit's layout overflowed")
}

// TestClaimDeterministicTotals runs the same dense launch twice on four
// workers: the atomic traffic and decoded totals must not depend on how the
// workers interleave their page claims.
func TestClaimDeterministicTotals(t *testing.T) {
	const groups, wg = 8, 64
	layout := WorstCase(groups, wg)
	run := func() (int64, int) {
		state, dev := newArena(t, layout)
		stats, err := testDevice().Launch(gpu.LaunchSpec{
			Name:   "emit",
			Global: groups * wg,
			Local:  wg,
			Phases: perItem(func(g *gpu.Group, gid int) {
				if gid%3 == 0 {
					dev.Claim(g)
				}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		geo, err := Decode(layout.PageSlots, layout.Pages, state)
		if err != nil {
			t.Fatal(err)
		}
		return stats.AtomicOps, geo.Total
	}
	a1, t1 := run()
	a2, t2 := run()
	if a1 != a2 || t1 != t2 {
		t.Errorf("runs diverged: atomics %d vs %d, totals %d vs %d", a1, a2, t1, t2)
	}
}

// TestClaimNMatchesClaims drives twin arenas from the same random prior
// state — page size, provisioned pages, the group's emission counter and
// page, the cursor — one through k Claim calls and one through ClaimN(g, k),
// and requires the same slots, the same Count, Cursor, PageOf and Overflow
// afterwards and the same AtomicOps. Every path of the claim protocol must
// come up: a leader's fresh page, followers, a page filling mid-batch, an
// exhausted cursor, a group already marked PageOverflow, and k = 0.
func TestClaimNMatchesClaims(t *testing.T) {
	const groups = 3
	rng := rand.New(rand.NewSource(35))
	dev := testDevice()
	paths := map[string]int{}
	// run launches one kernel over the arena in which only group grp acts.
	run := func(d *Device, grp int, body func(d *Device, g *gpu.Group)) int64 {
		st, err := dev.Launch(gpu.LaunchSpec{
			Name:   "claim",
			Global: groups,
			Local:  1,
			Phases: func() []gpu.Phase {
				return []gpu.Phase{func(g *gpu.Group) {
					if g.ID() == grp {
						body(d, g)
					}
				}}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.AtomicOps
	}
	for trial := 0; trial < 400; trial++ {
		l := Layout{PageSlots: 1 + rng.Intn(8), Pages: 1 + rng.Intn(4), Groups: groups}
		grp, k := rng.Intn(groups), rng.Intn(12)
		prior, p := newArena(t, l)
		*p.Cursor = uint32(rng.Intn(l.Pages + 2))
		*p.Overflow = uint32(rng.Intn(3))
		switch rng.Intn(3) {
		case 0: // the group has not emitted yet
			paths["fresh"]++
		case 1: // the group holds a page
			*p.Cursor = uint32(1 + rng.Intn(l.Pages))
			p.PageOf[grp] = uint32(rng.Intn(int(*p.Cursor)))
			p.Count[grp] = uint32(1 + rng.Intn(l.PageSlots+2))
			paths["follower"]++
		default: // the group's claim found the arena exhausted
			p.PageOf[grp] = PageOverflow
			p.Count[grp] = uint32(1 + rng.Intn(l.PageSlots+2))
			paths["published overflow"]++
		}
		switch {
		case k == 0:
			paths["k=0"]++
		case p.Count[grp] == 0 && int(*p.Cursor) >= l.Pages:
			paths["cursor exhausted"]++
		case p.PageOf[grp] != PageOverflow && int(p.Count[grp]) < l.PageSlots && int(p.Count[grp])+k > l.PageSlots:
			paths["page fills mid-batch"]++
		}
		clone := func() ([]uint32, *Device) {
			state := slices.Clone(prior)
			d, err := Bind(l.PageSlots, l.Pages, state)
			if err != nil {
				t.Fatal(err)
			}
			return state, d
		}
		oneState, one := clone()
		batchState, batch := clone()
		var want, got []int
		wantOps := run(one, grp, func(d *Device, g *gpu.Group) {
			for range k {
				want = append(want, d.Claim(g))
			}
		})
		gotOps := run(batch, grp, func(d *Device, g *gpu.Group) {
			first, n := d.ClaimN(g, k)
			if n > 0 && first < 0 || n == 0 && first != -1 {
				t.Errorf("ClaimN = (%d, %d)", first, n)
			}
			for i := range k {
				if i < n {
					got = append(got, first+i)
				} else {
					got = append(got, -1)
				}
			}
		})
		if !slices.Equal(got, want) || gotOps != wantOps || !slices.Equal(batchState, oneState) {
			t.Fatalf("trial %d: layout %v, group %d, prior state %#x, k %d:\n"+
				"ClaimN slots %v, %d atomics, state %#x\n"+
				"Claim  slots %v, %d atomics, state %#x",
				trial, l, grp, prior, k, got, gotOps, batchState, want, wantOps, oneState)
		}
	}
	for _, p := range []string{"fresh", "follower", "published overflow", "k=0", "cursor exhausted", "page fills mid-batch"} {
		if paths[p] == 0 {
			t.Errorf("no trial took the %q path", p)
		}
	}
}

// TestDecodeRejectsCorruption feeds Decode every impossible-state shape a
// corrupted readback could produce; each must come back as SiteArena
// corruption, never as geometry that would missize the entry gather.
func TestDecodeRejectsCorruption(t *testing.T) {
	const pageSlots, pages = 64, 4
	np, po := NoPage, PageOverflow
	cases := []struct {
		name  string
		state []uint32 // overflow, cursor, counters, page table
	}{
		{"mismatched tables", []uint32{0, 0, 0, np, np}},
		{"no groups", []uint32{0, 0}},
		{"short", []uint32{0}},
		{"cursor past pages", []uint32{0, 5, 0, 0, np, np}},
		{"emitted without a page", []uint32{0, 0, 3, 0, np, np}},
		{"overflow page with zero counter", []uint32{0, 1, 64, 1, po, 0}},
		{"page past cursor", []uint32{0, 1, 1, 1, 0, 3}},
		{"counter past page size", []uint32{0, 1, 65, 0, 0, np}},
		{"claimed without emitting", []uint32{0, 1, 0, 0, 0, np}},
		{"page claimed twice", []uint32{0, 2, 1, 1, 0, 0}},
		{"claimed pages unowned", []uint32{0, 2, 1, 0, 0, np}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(pageSlots, pages, tt.state)
			if err == nil {
				t.Fatal("corrupt state decoded")
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Site != fault.SiteArena || fe.Class != fault.Corruption {
				t.Fatalf("err = %v, want SiteArena corruption", err)
			}
		})
	}

	// The clean shape those cases mutate decodes fine.
	geo, err := Decode(pageSlots, pages, []uint32{0, 2, 5, 9, 0, 1, 0, np})
	if err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	if geo.Claimed != 2 || geo.Total != 14 || geo.Counts[0] != 9 || geo.Counts[1] != 5 {
		t.Errorf("geometry = %+v", geo)
	}
}

// TestNewStateLayout pins the claim state's word order — overflow, cursor,
// the G emission counters, the G-entry page table — and NewState's
// contents, and requires Bind to view exactly those words and to refuse,
// with an error, a state that is short, odd-length or holds no groups.
func TestNewStateLayout(t *testing.T) {
	l := SizedPages(2, 3, 8)
	state := l.NewState()
	np := NoPage
	if want := []uint32{0, 0, 0, 0, 0, np, np, np}; !slices.Equal(state, want) {
		t.Fatalf("NewState = %#x, want %#x", state, want)
	}
	if int64(4*len(state)) != l.MetaBytes() {
		t.Errorf("state of %d words, MetaBytes %d", len(state), l.MetaBytes())
	}
	for _, w := range []struct {
		got  Words
		want Words
	}{
		{l.OverflowWords(), Words{0, 1}},
		{l.CursorWords(), Words{1, 1}},
		{l.CountWords(), Words{2, 3}},
		{l.PageWords(), Words{5, 3}},
	} {
		if w.got != w.want {
			t.Errorf("word range %+v, want %+v", w.got, w.want)
		}
	}
	for i := range state {
		state[i] = uint32(i + 1)
	}
	d, err := Bind(l.PageSlots, l.Pages, state)
	if err != nil {
		t.Fatal(err)
	}
	if d.PageSlots != 8 || d.Pages != 2 || *d.Overflow != 1 || *d.Cursor != 2 ||
		!slices.Equal(d.Count, []uint32{3, 4, 5}) || !slices.Equal(d.PageOf, []uint32{6, 7, 8}) {
		t.Errorf("Bind view %+v (overflow %d, cursor %d) does not match the word order", d, *d.Overflow, *d.Cursor)
	}
	if cap(d.Count) != 3 {
		t.Errorf("the counter table reaches %d words into the page table", cap(d.Count)-3)
	}
	for _, n := range []int{0, 1, 2, 3, 5, 7} {
		if d, err := Bind(8, 2, make([]uint32, n)); err == nil {
			t.Errorf("Bind of a %d-word state = %+v, want an error", n, d)
		}
	}
}
