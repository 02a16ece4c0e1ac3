// Package alloc is the device-side hit-buffer arena: a page-based
// sub-allocator that lets kernels compact an unpredictable number of output
// entries into an arena provisioned below the worst case ("Dynamic Memory
// Management on GPUs with SYCL" shape, specialised to the append-only output
// pattern of the finder and comparer).
//
// The arena is a flat slot array cut into fixed-size pages. Pages are sized
// so one work-group's maximum output fits in one page (PageSlots >= max
// entries per item × work-group size), so each group claims at most one
// page: the group's first emitting work-item takes a page from the global
// atomic page cursor and publishes it to the group's page table, and every
// emission takes its slot offset from the group's emission counter. When the
// cursor runs past the provisioned pages the claim bumps an overflow counter
// and drops the write — the host reads the counters back, refits the arena
// to exactly the groups that emitted (Refit) and relaunches once, so no
// entry is ever lost end to end.
//
// Under the one-page-per-group invariant the worst-case layout of one page
// per work-group can never overflow, and neither can the refitted one: a
// group bumps its emission counter before it tries the cursor, so an
// overflowed launch's counters still name every group that emits. Overflow
// observed at either size can only mean corrupted arena state. The
// claim protocol is also schedule-deterministic as long as the launch fits:
// every emission costs one atomic add plus one atomic read (or, for the one
// claiming item per group, one cursor add and one publish store). Which
// groups win the pages of an under-provisioned launch is a race between
// workers, so the host does not account a launch it voids.
package alloc

import (
	"fmt"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
)

const (
	// NoPage marks a group that has not claimed a page yet.
	NoPage = ^uint32(0)
	// PageOverflow marks a group whose page claim found the arena
	// exhausted; its siblings drop their entries without touching the
	// cursor.
	PageOverflow = ^uint32(0) - 1
)

// Layout is the host-side shape of one launch's arena.
type Layout struct {
	// PageSlots is the number of entry slots per page. It must be at least
	// the maximum number of entries one work-group can emit (max entries
	// per item × work-group size) for the worst-case no-overflow guarantee
	// to hold.
	PageSlots int
	// Pages is the number of provisioned pages.
	Pages int
	// Groups is the number of work-groups in the launch; the group state
	// tables have one entry per group.
	Groups int
}

// WorstCase returns the layout that can never overflow: one page per
// work-group, with pages holding a full group's maximum output.
func WorstCase(groups, pageSlots int) Layout {
	if groups < 1 {
		groups = 1
	}
	return Layout{PageSlots: pageSlots, Pages: groups, Groups: groups}
}

// SizedPages returns a layout provisioning pages pages directly, clamped to
// [one page, the worst case for groups]. Because every emitting group claims
// exactly one page regardless of how few entries it writes, provisioning
// counts *emitting groups*, not entries.
func SizedPages(pages, groups, pageSlots int) Layout {
	l := WorstCase(groups, pageSlots)
	if pages < 1 {
		pages = 1
	}
	if pages < l.Pages {
		l.Pages = pages
	}
	return l
}

// Refit returns the layout that relaunches a launch which overflowed at l:
// one page per group whose emission counter (count, read back from the
// overflowed launch) is non-zero, clamped to the worst case. Claim bumps a
// group's counter before it tries the page cursor, so the counters name
// every emitting group even though the launch dropped entries. ok is false
// when that is no more pages than l provisioned: the overflow was then
// impossible, so the counters can only be corrupted.
func Refit(l Layout, count []uint32) (next Layout, ok bool) {
	if len(count) != l.Groups {
		return l, false
	}
	need := 0
	for _, n := range count {
		if n != 0 {
			need++
		}
	}
	next = SizedPages(need, l.Groups, l.PageSlots)
	if next.Pages <= l.Pages {
		return l, false
	}
	return next, true
}

// Slots is the total entry capacity of the layout.
func (l Layout) Slots() int { return l.Pages * l.PageSlots }

// DataBytes is the size of the arena's entry storage for entries of
// entryBytes bytes each — the output provisioning the dynamic arena
// shrinks relative to worst-case allocation.
func (l Layout) DataBytes(entryBytes int) int64 {
	return int64(l.Slots()) * int64(entryBytes)
}

// MetaBytes is the size of the arena's bookkeeping state: the per-group
// emission counters and page table, the page cursor and the overflow
// counter.
func (l Layout) MetaBytes() int64 {
	return 8*int64(l.Groups) + 4 + 4
}

// Device is the device-visible arena state bound into one kernel launch.
// Count, PageOf, Cursor and Overflow alias device buffers; kernels allocate
// slots through Claim and never touch the state directly.
type Device struct {
	// PageSlots is the entry capacity of one page.
	PageSlots int
	// Pages is the number of provisioned pages.
	Pages int
	// Cursor is the global page-claim cursor.
	Cursor *uint32
	// Count holds one emission counter per work-group; the counter value
	// is the entry's slot offset within the group's page.
	Count []uint32
	// PageOf holds the page claimed by each work-group — NoPage before the
	// group's first emission, PageOverflow when the claim failed.
	PageOf []uint32
	// Overflow counts entries dropped because every page was claimed.
	Overflow *uint32
}

// Claim allocates one output slot for a work-item of group g, returning -1
// when the arena is exhausted (the drop is counted in Overflow; the host
// refits the arena and relaunches). The group's emission counter is bumped
// before anything else, so it counts the group as emitting even when the
// claim fails — what Refit relies on. The group's first emitting item claims
// the group's single page from the global cursor and publishes it; every
// later emission is one atomic add on the group counter and one atomic read
// of the published page, so the accounted traffic of a launch that fits its
// arena is a function of what each group emits.
func (d *Device) Claim(g *gpu.Group) int {
	grp, st := g.ID(0), g.Stats()
	off := st.AtomicIncUint32(&d.Count[grp])
	if int(off) >= d.PageSlots {
		// Only reachable when the host sized pages below the group's
		// maximum output, violating the one-page-per-group invariant;
		// dropped defensively rather than corrupting a neighbour page.
		st.AtomicIncUint32(d.Overflow)
		return -1
	}
	if off == 0 {
		page := st.AtomicIncUint32(d.Cursor)
		if int(page) >= d.Pages {
			st.AtomicStoreUint32(&d.PageOf[grp], PageOverflow)
			st.AtomicIncUint32(d.Overflow)
			return -1
		}
		st.AtomicStoreUint32(&d.PageOf[grp], page)
		return int(page) * d.PageSlots
	}
	// A group's items run in order on one worker, so its claiming item has
	// always published before a sibling reads.
	page := st.AtomicLoadUint32(&d.PageOf[grp])
	if page == PageOverflow {
		st.AtomicIncUint32(d.Overflow)
		return -1
	}
	return int(page)*d.PageSlots + int(off)
}

// ClaimN allocates k output slots for k successive emissions of group g and
// is exactly k Claim calls: it leaves Count, Cursor, PageOf and Overflow as
// they would and charges the same AtomicOps, but touches each word once.
// Successive claims succeed as a prefix — a failed cursor claim marks the
// group PageOverflow and a filled page stays full — so the grant is the
// got slots first, first+1, …; the k-got claims after them are dropped and
// counted in Overflow. first is -1 when got is 0.
func (d *Device) ClaimN(g *gpu.Group, k int) (first, got int) {
	if k <= 0 {
		return -1, 0
	}
	grp, st := g.ID(0), g.Stats()
	// One emission-counter add per claim; the claims at offsets inside the
	// page each read the published page, except a leader's, which takes a
	// page from the cursor and publishes it (two operations).
	off := int(st.AtomicAddUint32(&d.Count[grp], uint32(k)))
	in := min(max(d.PageSlots-off, 0), k)
	st.AtomicOps += int64(k - 1 + max(in-1, 0))
	first = -1
	if in > 0 {
		var page uint32
		if off == 0 {
			page = st.AtomicIncUint32(d.Cursor)
			if int(page) >= d.Pages {
				page = PageOverflow
			}
			st.AtomicStoreUint32(&d.PageOf[grp], page)
		} else {
			page = st.AtomicLoadUint32(&d.PageOf[grp])
		}
		if page != PageOverflow {
			first, got = int(page)*d.PageSlots+off, in
		}
	}
	if drop := k - got; drop > 0 {
		st.AtomicAddUint32(d.Overflow, uint32(drop))
		st.AtomicOps += int64(drop - 1)
	}
	return first, got
}

// Geometry is the decoded result of one launch: which pages were claimed
// and how many valid entries each holds.
type Geometry struct {
	// PageSlots mirrors the layout's page capacity.
	PageSlots int
	// Claimed is the number of pages the launch claimed.
	Claimed int
	// Counts holds the valid entry count of each claimed page.
	Counts []int
	// Order lists the claimed pages by ascending owning work-group. Page
	// numbers are handed out by the cursor race, so page order varies run to
	// run; consumers that concatenate pages walk Order instead, which makes
	// the gathered entry order a function of the input alone.
	Order []int
	// Total is the sum of Counts.
	Total int
}

// Decode validates the arena state read back from a completed,
// non-overflowed launch — the page cursor and the per-group counters and
// page table — and returns its geometry. Impossible state (a cursor past
// the provisioned pages, a group counter beyond the page size, a page
// claimed by two groups, or an emitting group without a page) is rejected
// as fault.SiteArena corruption: readback bit-flips must never size the
// entry gather.
func Decode(cursor uint32, count, pageOf []uint32, pageSlots, pages int) (*Geometry, error) {
	if len(count) != len(pageOf) {
		return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
			"alloc: %d group counters but %d group pages", len(count), len(pageOf))
	}
	if int64(cursor) > int64(pages) {
		return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
			"alloc: page cursor %d exceeds %d provisioned pages", cursor, pages)
	}
	g := &Geometry{PageSlots: pageSlots, Claimed: int(cursor), Counts: make([]int, cursor), Order: make([]int, 0, cursor)}
	for grp, p := range pageOf {
		n := count[grp]
		switch {
		case p == NoPage:
			if n != 0 {
				return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
					"alloc: group %d emitted %d entries without a page", grp, n)
			}
		case p == PageOverflow:
			return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
				"alloc: group %d overflowed but the overflow counter read zero", grp)
		case int64(p) >= int64(cursor):
			return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
				"alloc: group %d holds page %d past cursor %d", grp, p, cursor)
		case int64(n) > int64(pageSlots):
			return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
				"alloc: group %d counter %d exceeds page size %d", grp, n, pageSlots)
		case n == 0:
			return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
				"alloc: group %d claimed page %d without emitting", grp, p)
		case g.Counts[p] != 0:
			return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
				"alloc: page %d claimed by two groups", p)
		default:
			g.Counts[p] = int(n)
			g.Total += int(n)
			g.Order = append(g.Order, int(p))
		}
	}
	if len(g.Order) != g.Claimed {
		return nil, fault.Errorf(fault.SiteArena, fault.Corruption,
			"alloc: cursor claimed %d pages but %d groups own one", g.Claimed, len(g.Order))
	}
	return g, nil
}

// Gather appends the valid entries of every claimed page from the
// page-strided device array src to dst, in work-group order.
func Gather[T any](g *Geometry, src, dst []T) []T {
	for _, p := range g.Order {
		base := p * g.PageSlots
		dst = append(dst, src[base:base+g.Counts[p]]...)
	}
	return dst
}

// Host is a host-allocated arena: the backing arrays plus the Device view
// over them, for single-launch callers (tests, the isa model's probes) that
// do not stage the state through a frontend's buffers.
type Host struct {
	Layout   Layout
	Cursor   []uint32
	Count    []uint32
	PageOf   []uint32
	Overflow []uint32
}

// NewHost allocates a zeroed arena for the layout with the page table
// cleared to NoPage.
func NewHost(l Layout) *Host {
	return &Host{
		Layout:   l,
		Cursor:   make([]uint32, 1),
		Count:    make([]uint32, l.Groups),
		PageOf:   UnsetPages(l.Groups),
		Overflow: make([]uint32, 1),
	}
}

// Device returns the kernel-visible view of the arena.
func (h *Host) Device() *Device {
	return &Device{
		PageSlots: h.Layout.PageSlots,
		Pages:     h.Layout.Pages,
		Cursor:    &h.Cursor[0],
		Count:     h.Count,
		PageOf:    h.PageOf,
		Overflow:  &h.Overflow[0],
	}
}

// Reset clears the arena for relaunch.
func (h *Host) Reset() {
	h.Cursor[0] = 0
	h.Overflow[0] = 0
	for i := range h.Count {
		h.Count[i] = 0
	}
	for i := range h.PageOf {
		h.PageOf[i] = NoPage
	}
}

// Decode decodes the host arena's own state after a launch.
func (h *Host) Decode() (*Geometry, error) {
	return Decode(h.Cursor[0], h.Count, h.PageOf, h.Layout.PageSlots, h.Layout.Pages)
}

// UnsetPages returns a host slice of n NoPage entries, the initial contents
// of a page-table device buffer.
func UnsetPages(n int) []uint32 {
	pages := make([]uint32, n)
	for i := range pages {
		pages[i] = NoPage
	}
	return pages
}

// String renders the layout for error messages and logs.
func (l Layout) String() string {
	return fmt.Sprintf("%d pages × %d slots (%d groups)", l.Pages, l.PageSlots, l.Groups)
}
