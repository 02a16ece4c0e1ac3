package search

import (
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
)

// BuildArtifact packs asm into a persistent genome artifact. A non-empty
// pattern additionally precomputes per-sequence PAM-candidate shards with
// the SWAR 32-wide prefilter — the sweep the scan engines run per chunk,
// hoisted to build time over whole sequences. Chunk bodies tile a
// sequence's candidate range exactly, so a loaded shard sliced to any chunk
// window reproduces that chunk's fresh prefilter output (and its ascending
// order) bit for bit; the equivalence tests pin this.
func BuildArtifact(asm *genome.Assembly, pattern string) (*genome.Artifact, error) {
	if pattern == "" {
		return genome.BuildArtifact(asm, "", 0, nil)
	}
	pair, err := kernels.NewPatternPair([]byte(pattern))
	if err != nil {
		return nil, fmt.Errorf("search: artifact pattern: %w", err)
	}
	bp := compileBitPattern(pair)
	plen := pair.PatternLen
	pamFor := func(si int, v *genome.WordView) []genome.PAMEntry {
		var sc scanScratch
		sc.findSWARCandidates(v, bp, 0, v.Len()-plen+1)
		return sc.cand
	}
	return genome.BuildArtifact(asm, pattern, plen, pamFor)
}
