package search

// Arena provisioning for the simulator backend (simBackend, behind SimCL
// and SimSYCL): how many pages each launch's hit-buffer arena gets.
// Provisioning is page-granular — every emitting work-group claims exactly
// one page however few entries it writes — so a layout counts emitting
// groups, not entries. Every layout is a function of its own launch alone,
// never of the launches before it, so the arena counters a run reports
// depend on the input and not on the schedule.
//
// The finder is provisioned at the worst case (one page per group): PAM
// candidates are spread near-uniformly across real genomes, so nearly every
// finder group emits and a smaller arena would buy a relaunch on almost every
// chunk. The comparer's entries exist only where a guide aligns, which
// clusters in a few groups, so its first attempt gets comparerFirstPages
// pages; a launch that overflows them is relaunched once at the layout its
// own read-back counters call for (alloc.Refit).

import "casoffinder/internal/gpu/alloc"

const (
	// comparerFirstPages is the comparer arena's first-attempt page count.
	// Four pages cover the emitting groups of nearly every comparer launch
	// of a real search; a denser launch costs one exact relaunch.
	comparerFirstPages = 4

	// finderEntryBytes and comparerEntryBytes are the per-entry storage the
	// arena provisions: locus+flag for the finder, locus+mismatch-count+
	// direction for the comparer.
	finderEntryBytes   = 4 + 1
	comparerEntryBytes = 4 + 2 + 1
)

// comparerLayout provisions the first attempt of one guide launch's comparer
// arena: comparerFirstPages pages, or the worst case when the engine pins it.
func comparerLayout(groups, pageSlots int, worstCase bool) alloc.Layout {
	if worstCase {
		return alloc.WorstCase(groups, pageSlots)
	}
	return alloc.SizedPages(comparerFirstPages, groups, pageSlots)
}
