package search

// Arena provisioning for the simulator backend (simBackend, behind SimCL,
// SimSYCL and MultiSYCL): how many pages each launch's hit-buffer arena
// gets, and where the prediction comes from. Provisioning is
// page-granular — every emitting work-group claims exactly one page however
// few entries it writes — so what is predicted is the *fraction of groups
// that emit*, not the entry count. The worst case (one page per group) is
// what the pre-arena backends effectively allocated: sites-sized finder
// outputs and 2×candidates comparer outputs. A dynamic run provisions from
// the predicted fraction instead and relies on the overflow grow-and-retry
// loop when a chunk is denser than predicted.

import (
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/pipeline"
)

const (
	// arenaAlpha is the EWMA weight of the newest density observation: heavy
	// enough to track a density gradient along a chromosome, light enough
	// that one outlier chunk does not dominate the next provision.
	arenaAlpha = 0.3
	// arenaMargin is the safety factor on predictions — headroom against
	// density variance between neighbouring chunks, trading a few percent of
	// bytes against relaunches.
	arenaMargin = 1.5
	// arenaFinderPrior and arenaComparerPrior seed the predictors (in
	// emitting-group fraction) before the first observation, which replaces
	// them entirely. The finder starts at the worst case — PAM candidates
	// are spread near-uniformly across real genomes, so nearly every group
	// emits and a lower prior would buy a guaranteed first-chunk relaunch.
	// The comparer starts lower: its entries exist only where a guide
	// aligns, which clusters in a minority of groups.
	arenaFinderPrior   = 1.0
	arenaComparerPrior = 0.5

	// finderEntryBytes and comparerEntryBytes are the per-entry storage the
	// arena provisions: locus+flag for the finder, locus+mismatch-count+
	// direction for the comparer.
	finderEntryBytes   = 4 + 1
	comparerEntryBytes = 4 + 2 + 1
)

// finderLayout provisions one chunk's finder arena. Worst case when the
// engine pins it; an exact emitting-group count from the artifact's
// PAM-site index when the plan carries one for this pattern (the same
// resident shards the CPU engine takes its candidates from); the density
// predictor otherwise.
func finderLayout(plan *pipeline.Plan, pred *alloc.Predictor, ch *genome.Chunk, groups, pageSlots int, worstCase bool) alloc.Layout {
	if worstCase {
		return alloc.WorstCase(groups, pageSlots)
	}
	if art := plan.Artifact; art != nil && art.HasPAMIndex(plan.Request.Pattern) {
		return alloc.SizedPages(pamGroups(art, ch, pageSlots), groups, pageSlots)
	}
	return alloc.SizedPages(pred.Predict(groups), groups, pageSlots)
}

// pamGroups counts the work-groups of a chunk's finder launch that will
// emit at least one candidate, from the artifact's PAM shard: one group per
// wgSize-wide band of site indices holding an indexed position. The count
// is exact, so an artifact-provisioned finder arena never overflows.
func pamGroups(art *genome.Artifact, ch *genome.Chunk, wgSize int) int {
	pam := art.PAMRange(ch.SeqIndex, ch.Start, ch.Start+ch.Body)
	groups, last := 0, -1
	for _, e := range pam {
		g := (int(e>>2) - ch.Start) / wgSize
		if g != last {
			groups++
			last = g
		}
	}
	return groups
}

// comparerLayout provisions one guide launch's comparer arena.
func comparerLayout(pred *alloc.Predictor, groups, pageSlots int, worstCase bool) alloc.Layout {
	if worstCase {
		return alloc.WorstCase(groups, pageSlots)
	}
	return alloc.SizedPages(pred.Predict(groups), groups, pageSlots)
}

// arenaAdmissionCandRate is the assumed PAM-survival fraction behind
// ArenaCostEstimate — the same 5% shape assumption as the timing model's
// DefaultCandidateRate, restated here so the admission path does not pull
// the cost model in.
const arenaAdmissionCandRate = 0.05

// ArenaCostEstimate predicts the device-side hit-arena bytes one staged
// chunk of a request provisions: the finder arena at its prior density plus
// one comparer arena per guide at the assumed candidate-survival rate, both
// with the predictor's safety margin. The daemon's admission controller
// adds it to a request's byte cost so a many-guide search charges the
// inflight-bytes budget for the device memory its pass will pin, not just
// for its body bytes.
func ArenaCostEstimate(chunkBytes, guides int) int64 {
	if chunkBytes <= 0 {
		chunkBytes = pipeline.DefaultChunkBytes
	}
	if guides < 1 {
		guides = 1
	}
	sites := float64(chunkBytes)
	finder := sites * arenaFinderPrior * arenaMargin * finderEntryBytes
	perGuide := 2 * sites * arenaAdmissionCandRate * arenaComparerPrior * arenaMargin * comparerEntryBytes
	return int64(finder + float64(guides)*perGuide)
}
