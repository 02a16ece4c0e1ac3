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
// work-item of the group.
func perItem(body func(it *gpu.Item)) gpu.PhaseKernel {
	return func() []gpu.Phase {
		return []gpu.Phase{func(g *gpu.Group) { g.Each(body) }}
	}
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
	h := NewHost(layout)
	data := make([]uint32, layout.Slots())
	dev := h.Device()
	if _, err := testDevice().Launch(gpu.LaunchSpec{
		Name:   "emit",
		Global: gpu.R1(groups * wg),
		Local:  gpu.R1(wg),
		Phases: perItem(func(it *gpu.Item) {
			if !emits(it.GroupID(0), it.LocalID(0)) {
				return
			}
			slot := dev.Claim(it.Group())
			if slot < 0 {
				return
			}
			data[slot] = uint32(it.GlobalID(0))
		}),
	}); err != nil {
		t.Fatal(err)
	}
	if h.Overflow[0] != 0 {
		t.Fatalf("overflow = %d on a sufficient arena", h.Overflow[0])
	}
	geo, err := h.Decode()
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
	geo, err := Decode(3, count, pageOf, pageSlots, 3)
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
		h := NewHost(layout)
		data := make([]uint32, layout.Slots())
		dev := h.Device()
		if _, err := d.Launch(gpu.LaunchSpec{
			Name:   "emit-some",
			Global: gpu.R1(groups * wg),
			Local:  gpu.R1(wg),
			Phases: perItem(func(it *gpu.Item) {
				if !emits(it.GroupID(0)) {
					return
				}
				if slot := dev.Claim(it.Group()); slot >= 0 {
					data[slot] = uint32(it.GlobalID(0)) + 1
				}
			}),
		}); err != nil {
			t.Fatal(err)
		}
		if h.Overflow[0] == 0 {
			if attempt == 0 {
				t.Fatal("one page for five emitting groups did not overflow")
			}
			geo, err := h.Decode()
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
		next, ok := Refit(layout, h.Count)
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
		h := NewHost(layout)
		dev := h.Device()
		stats, err := testDevice().Launch(gpu.LaunchSpec{
			Name:   "emit",
			Global: gpu.R1(groups * wg),
			Local:  gpu.R1(wg),
			Phases: perItem(func(it *gpu.Item) {
				if it.GlobalID(0)%3 == 0 {
					dev.Claim(it.Group())
				}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		geo, err := h.Decode()
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
	run := func(h *Host, grp int, body func(d *Device, g *gpu.Group)) int64 {
		d := h.Device()
		st, err := dev.Launch(gpu.LaunchSpec{
			Name:   "claim",
			Global: gpu.R1(groups),
			Local:  gpu.R1(1),
			Phases: func() []gpu.Phase {
				return []gpu.Phase{func(g *gpu.Group) {
					if g.ID(0) == grp {
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
		prior := NewHost(l)
		prior.Cursor[0] = uint32(rng.Intn(l.Pages + 2))
		prior.Overflow[0] = uint32(rng.Intn(3))
		switch rng.Intn(3) {
		case 0: // the group has not emitted yet
			paths["fresh"]++
		case 1: // the group holds a page
			prior.Cursor[0] = uint32(1 + rng.Intn(l.Pages))
			prior.PageOf[grp] = uint32(rng.Intn(int(prior.Cursor[0])))
			prior.Count[grp] = uint32(1 + rng.Intn(l.PageSlots+2))
			paths["follower"]++
		default: // the group's claim found the arena exhausted
			prior.PageOf[grp] = PageOverflow
			prior.Count[grp] = uint32(1 + rng.Intn(l.PageSlots+2))
			paths["published overflow"]++
		}
		switch {
		case k == 0:
			paths["k=0"]++
		case prior.Count[grp] == 0 && int(prior.Cursor[0]) >= l.Pages:
			paths["cursor exhausted"]++
		case prior.PageOf[grp] != PageOverflow && int(prior.Count[grp]) < l.PageSlots && int(prior.Count[grp])+k > l.PageSlots:
			paths["page fills mid-batch"]++
		}
		clone := func() *Host {
			h := NewHost(l)
			h.Cursor[0], h.Overflow[0] = prior.Cursor[0], prior.Overflow[0]
			copy(h.Count, prior.Count)
			copy(h.PageOf, prior.PageOf)
			return h
		}
		one, batch := clone(), clone()
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
		if !slices.Equal(got, want) || gotOps != wantOps ||
			batch.Cursor[0] != one.Cursor[0] || batch.Overflow[0] != one.Overflow[0] ||
			!slices.Equal(batch.Count, one.Count) || !slices.Equal(batch.PageOf, one.PageOf) {
			t.Fatalf("trial %d: layout %v, group %d, prior count %d page %#x cursor %d, k %d:\n"+
				"ClaimN slots %v, %d atomics, cursor %d, overflow %d, count %v, pages %#x\n"+
				"Claim  slots %v, %d atomics, cursor %d, overflow %d, count %v, pages %#x",
				trial, l, grp, prior.Count[grp], prior.PageOf[grp], prior.Cursor[0], k,
				got, gotOps, batch.Cursor[0], batch.Overflow[0], batch.Count, batch.PageOf,
				want, wantOps, one.Cursor[0], one.Overflow[0], one.Count, one.PageOf)
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
		name   string
		cursor uint32
		count  []uint32
		pageOf []uint32
	}{
		{"mismatched tables", 0, []uint32{0}, []uint32{np, np}},
		{"cursor past pages", 5, []uint32{0, 0}, []uint32{np, np}},
		{"emitted without a page", 0, []uint32{3, 0}, []uint32{np, np}},
		{"overflow page with zero counter", 1, []uint32{64, 1}, []uint32{po, 0}},
		{"page past cursor", 1, []uint32{1, 1}, []uint32{0, 3}},
		{"counter past page size", 1, []uint32{65, 0}, []uint32{0, np}},
		{"claimed without emitting", 1, []uint32{0, 0}, []uint32{0, np}},
		{"page claimed twice", 2, []uint32{1, 1}, []uint32{0, 0}},
		{"claimed pages unowned", 2, []uint32{1, 0}, []uint32{0, np}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(tt.cursor, tt.count, tt.pageOf, pageSlots, pages)
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
	geo, err := Decode(2, []uint32{5, 9, 0}, []uint32{1, 0, np}, pageSlots, pages)
	if err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	if geo.Claimed != 2 || geo.Total != 14 || geo.Counts[0] != 9 || geo.Counts[1] != 5 {
		t.Errorf("geometry = %+v", geo)
	}
}

func TestHostReset(t *testing.T) {
	h := NewHost(SizedPages(2, 4, 8))
	h.Cursor[0], h.Overflow[0] = 2, 1
	h.Count[1], h.PageOf[1] = 3, 0
	h.Reset()
	if h.Cursor[0] != 0 || h.Overflow[0] != 0 || h.Count[1] != 0 || h.PageOf[1] != NoPage {
		t.Errorf("Reset left state: %+v", h)
	}
}
