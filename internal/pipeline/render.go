package pipeline

import (
	"cmp"
	"slices"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
)

// SiteRenderer renders reported sites into the upstream output convention,
// reusing one scratch buffer across hits. Each scan worker owns one
// renderer, so rendering a hit costs a single string allocation instead of
// an intermediate byte slice per hit. The zero value is ready to use; a
// renderer must not be shared between goroutines.
type SiteRenderer struct {
	buf []byte
}

// Render extracts the site sequence for output in guide orientation,
// lower-casing mismatched guide positions (the upstream output convention):
// forward sites compare the genomic window against the guide directly;
// reverse sites compare against the guide's reverse complement and are then
// reverse-complemented so the printed sequence aligns with the query.
func (r *SiteRenderer) Render(window []byte, guide *kernels.PatternPair, dir byte) string {
	if cap(r.buf) < len(window) {
		r.buf = make([]byte, len(window))
	}
	out := r.buf[:len(window)]
	offset := 0
	if dir == kernels.DirReverse {
		offset = guide.PatternLen
	}
	for i, b := range window {
		b &^= 0x20 // upper-case
		code := guide.Codes[offset+i]
		if code != 'N' && !genome.Matches(code, b) {
			b |= 0x20 // lower-case marks the mismatch
		}
		out[i] = b
	}
	if dir == kernels.DirReverse {
		genome.ReverseComplement(out) // case is preserved per code
	}
	return string(out)
}

// SortHits puts hits into the deterministic output order: by query, then
// sequence name, position and strand. The keys are unique across a search
// (chunk bodies partition the site starts), so the unstable sort still
// yields one canonical order.
func SortHits(hits []Hit) {
	slices.SortFunc(hits, func(a, b Hit) int {
		if c := cmp.Compare(a.QueryIndex, b.QueryIndex); c != 0 {
			return c
		}
		if c := cmp.Compare(a.SeqName, b.SeqName); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
			return c
		}
		return cmp.Compare(a.Dir, b.Dir)
	})
}
