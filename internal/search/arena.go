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

import (
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/pipeline"
)

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

// arenaAdmissionCandRate is the assumed PAM-survival fraction behind
// ArenaCostEstimate — the same 5% shape assumption as the timing model's
// DefaultCandidateRate, restated here so the admission path does not pull
// the cost model in.
const arenaAdmissionCandRate = 0.05

// ArenaCostEstimate bounds the device-side hit-arena entry bytes one staged
// chunk of the default size (pipeline.DefaultChunkBytes, what every daemon
// pass stages) can pin for a request of guides guides: the finder arena at
// its worst case (one entry per site) plus one comparer arena per guide at
// its worst case (two entries per candidate) for the assumed
// candidate-survival rate. The daemon's admission controller adds it to a
// request's byte cost so a many-guide search charges the inflight-bytes
// budget for the device memory its pass will pin, not just for its body
// bytes.
func ArenaCostEstimate(guides int) int64 {
	if guides < 1 {
		guides = 1
	}
	sites := float64(pipeline.DefaultChunkBytes)
	finder := sites * finderEntryBytes
	perGuide := 2 * sites * arenaAdmissionCandRate * comparerEntryBytes
	return int64(finder + float64(guides)*perGuide)
}
