package search

import (
	"fmt"
	"math/bits"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
)

// BuildArtifact packs asm into a persistent genome artifact. A non-empty
// pattern additionally precomputes per-sequence PAM-candidate shards with
// the SWAR 32-wide prefilter — the same matchLanes sweep the scan engines
// run per chunk, hoisted to build time over whole sequences. Chunk bodies
// tile a sequence's candidate range exactly, so a loaded shard sliced to
// any chunk window reproduces that chunk's fresh prefilter output (and its
// ascending order) bit for bit; the equivalence tests pin this.
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
	pamFor := func(si int, v *genome.WordView) []uint64 {
		var shard []uint64
		starts := v.Len() - plen + 1
		for pos0 := 0; pos0 < starts; pos0 += 32 {
			fw := bp.matchLanes(v, pos0, 0)
			rv := bp.matchLanes(v, pos0, 1)
			union := fw | rv
			if union == 0 {
				continue
			}
			if rem := starts - pos0; rem < 32 {
				union &= 1<<(uint(rem)*2) - 1
			}
			for u := union; u != 0; u &= u - 1 {
				bit := uint(bits.TrailingZeros64(u))
				var strand uint64
				if fw&(1<<bit) != 0 {
					strand |= genome.PAMFwd
				}
				if rv&(1<<bit) != 0 {
					strand |= genome.PAMRev
				}
				shard = append(shard, uint64(pos0+int(bit>>1))<<2|strand)
			}
		}
		return shard
	}
	return genome.BuildArtifact(asm, pattern, plen, pamFor)
}
