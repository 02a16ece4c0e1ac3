package search

import (
	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// rawHit is one comparer output entry before site rendering: the owning
// query, the chunk-local site position, the strand and the mismatch count.
// Every backend accumulates rawHits in its staged handle and lets
// drainEntries turn them into reported hits, so hit rendering exists in
// exactly one place.
type rawHit struct {
	qi  int
	pos int
	dir byte
	mm  int
}

// drainEntries renders raw comparer entries into reported hits using the
// scan worker's pooled site renderer. Every entry is validated against the
// chunk geometry first: a locus outside the chunk window, an impossible
// strand byte or a mismatch count beyond the pattern length can only come
// from a damaged device-to-host readback, so the chunk is rejected with a
// corruption-classed error instead of a panic — the executor then
// re-verifies it on the fallback backend. The injected corruption model
// flips MSBs (loud, always out of range); silently in-range corruption
// would need checksummed transfers, which is out of scope (DESIGN.md §9).
func drainEntries(r *pipeline.SiteRenderer, ch *genome.Chunk, guides []*kernels.PatternPair, entries []rawHit) ([]Hit, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	hits := make([]Hit, 0, len(entries))
	for _, e := range entries {
		if e.qi < 0 || e.qi >= len(guides) {
			return nil, fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: chunk %s:%d: entry query index %d out of %d", ch.SeqName, ch.Start, e.qi, len(guides))
		}
		g := guides[e.qi]
		if e.pos < 0 || e.pos+g.PatternLen > len(ch.Data) {
			return nil, fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: chunk %s:%d: entry locus %d outside the %d-byte window", ch.SeqName, ch.Start, e.pos, len(ch.Data))
		}
		if e.dir != kernels.DirForward && e.dir != kernels.DirReverse {
			return nil, fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: chunk %s:%d: entry strand %#x is neither forward nor reverse", ch.SeqName, ch.Start, e.dir)
		}
		if e.mm < 0 || e.mm > g.PatternLen {
			return nil, fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: chunk %s:%d: entry mismatch count %d exceeds the %d-base pattern", ch.SeqName, ch.Start, e.mm, g.PatternLen)
		}
		window := ch.Data[e.pos : e.pos+g.PatternLen]
		hits = append(hits, Hit{
			QueryIndex: e.qi,
			SeqName:    ch.SeqName,
			Pos:        ch.Start + e.pos,
			Dir:        e.dir,
			Mismatches: e.mm,
			Site:       r.Render(window, g, e.dir),
		})
	}
	return hits, nil
}

// closeErr folds a release error into the function error without masking
// an earlier one.
func closeErr(relErr error, err *error) {
	if relErr != nil && *err == nil {
		*err = relErr
	}
}

// policyFor copies an engine-configured resilience policy for one run,
// installing the CPU SWAR engine as the failover backend when none is set
// (its hit stream is byte-identical to the simulator engines', so a
// failed-over chunk preserves the golden output). A nil policy stays nil —
// the executor keeps its fail-fast contract.
func policyFor(res *pipeline.Resilience) *pipeline.Resilience {
	if res == nil {
		return nil
	}
	r := *res
	if r.Fallback == nil {
		r.Fallback = openCPUBackend
	}
	return &r
}
