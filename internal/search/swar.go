package search

import (
	"math/bits"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
)

// The SWAR (SIMD-within-a-register) core processes 32 bases per uint64
// instead of one base per load. A PatternPair is compiled once into
// per-word lane masks — for each 32-base pattern word, the set of indexed
// lanes plus one accumulator word per nucleotide marking the lanes whose
// IUPAC mask admits that base. Mismatch counting is then four XOR-derived
// equality planes, three ANDs/ORs and one OnesCount64 per pattern word,
// and PAM-candidate finding tests 32 genome positions per iteration. The
// per-base scalar and byte paths it replaced are the equivalence-test
// references in ref_test.go.

// bitIdx is one indexed pattern position of a strand half: its offset from
// the window start and its IUPAC mask.
type bitIdx struct {
	k int32
	m genome.Mask
}

// bitHalf is the compiled form of one strand half of a pattern.
type bitHalf struct {
	// idx lists the indexed (non-N) positions in ascending order; the
	// 32-wide candidate finder walks it so each iteration prunes 32
	// positions against one pattern position.
	idx []bitIdx
	// lanes[w] has lane bit 2·(k mod 32) set for every indexed position k
	// in pattern word w.
	lanes []uint64
	// acc[c][w] has the lane bit set when the pattern mask at that
	// position admits 2-bit code c. matched = OR_c(eqPlane_c & acc[c]).
	acc [4][]uint64
}

// bitPattern is a PatternPair compiled for word-parallel scanning over a
// genome.WordView.
type bitPattern struct {
	pair  *kernels.PatternPair
	words int // pattern words per strand half: ceil(PatternLen/32)
	half  [2]bitHalf
}

// compileBitPattern compiles pair into per-word bit masks for both strand
// halves.
func compileBitPattern(pair *kernels.PatternPair) *bitPattern {
	plen := pair.PatternLen
	b := &bitPattern{pair: pair, words: (plen + 31) / 32}
	for hi := 0; hi < 2; hi++ {
		offset := hi * plen
		h := &b.half[hi]
		h.lanes = make([]uint64, b.words)
		for c := 0; c < 4; c++ {
			h.acc[c] = make([]uint64, b.words)
		}
		for j := 0; j < plen; j++ {
			k := pair.Index[offset+j]
			if k == -1 {
				break
			}
			m := genome.MaskOf(pair.Codes[offset+int(k)])
			w, bit := int(k)>>5, uint(k&31)*2
			h.lanes[w] |= 1 << bit
			for c := 0; c < 4; c++ {
				if m&(1<<c) != 0 {
					h.acc[c][w] |= 1 << bit
				}
			}
			h.idx = append(h.idx, bitIdx{k: k, m: m})
		}
	}
	return b
}

func (b *bitPattern) halfIndex(offset int) int {
	if offset == 0 {
		return 0
	}
	return 1
}

// eqPlanes splits a 32-lane code word into four equality planes: lane bit
// 2i of plane c is set when lane i holds 2-bit code c.
func eqPlanes(x uint64) (a, c, g, t uint64) {
	hi := x >> 1
	a = ^(x | hi) & genome.LaneMask
	c = (x &^ hi) & genome.LaneMask
	g = (hi &^ x) & genome.LaneMask
	t = (x & hi) & genome.LaneMask
	return
}

// mismatchWord counts the indexed lanes of pattern word w that mismatch
// the text word: lanes that are unknown in the genome, or whose code is
// outside the pattern mask. This is the SWAR replacement for 32 iterations
// of the scalar IUPAC ladder.
func (h *bitHalf) mismatchWord(text, unk uint64, w int) int {
	ea, ec, eg, et := eqPlanes(text)
	matched := ea&h.acc[0][w] | ec&h.acc[1][w] | eg&h.acc[2][w] | et&h.acc[3][w]
	return bits.OnesCount64(h.lanes[w] & (unk | ^matched))
}

// mismatchesWords counts mismatching indexed positions of the strand half
// selected by offset (0 or PatternLen) over pre-fetched window words, giving
// up past the limit — the batched multi-pattern scan stages text[w], unk[w]
// = Window(pos+32w) once per candidate and then runs every compiled pattern
// against the cached words (all guides of a request share one pattern
// length). The pass/fail decision and the passing counts are identical to
// the scalar paths; a failing count may exceed the scalar's limit+1 because
// whole words are counted at a time.
func (b *bitPattern) mismatchesWords(text, unk []uint64, offset, limit int) (int, bool) {
	h := &b.half[b.halfIndex(offset)]
	mm := 0
	for w := 0; w < b.words; w++ {
		if h.lanes[w] == 0 {
			continue
		}
		mm += h.mismatchWord(text[w], unk[w], w)
		if mm > limit {
			return mm, false
		}
	}
	return mm, true
}

// matchLanes tests 32 consecutive candidate positions pos0..pos0+31 against
// the strand half selected by offset, returning a word whose lane bit 2i is
// set when the window at pos0+i matches every indexed pattern position.
// For each indexed position k it loads the (unaligned) window at pos0+k,
// whose lane i is genome base pos0+i+k, and prunes the surviving lane set;
// scaffold matches are rare, so the loop usually exits after one or two
// pattern positions with lanes == 0.
func (b *bitPattern) matchLanes(v *genome.WordView, pos0, offset int) uint64 {
	h := &b.half[b.halfIndex(offset)]
	lanes := uint64(genome.LaneMask)
	for _, e := range h.idx {
		text, unk := v.Window(pos0 + int(e.k))
		ea, ec, eg, et := eqPlanes(text)
		var matched uint64
		if e.m&genome.MaskA != 0 {
			matched |= ea
		}
		if e.m&genome.MaskC != 0 {
			matched |= ec
		}
		if e.m&genome.MaskG != 0 {
			matched |= eg
		}
		if e.m&genome.MaskT != 0 {
			matched |= et
		}
		lanes &= matched &^ unk
		if lanes == 0 {
			return 0
		}
	}
	return lanes
}

// findSWARCandidates is the word-parallel PAM prefilter: 32 candidate
// positions per iteration, both strands, with the tail past the chunk body
// clamped off. Candidates come out in ascending position, the order of an
// artifact PAM shard, so downstream phases cannot tell which ran. base maps
// chunk-local positions into v's coordinates: 0 when v is the chunk's own
// word view, ch.Start when v is a whole-sequence view resident in a genome
// artifact (the chunk aliases sequence bytes, so the windows are the same
// bases either way); candidate positions stay chunk-local.
func (sc *scanScratch) findSWARCandidates(ch *genome.Chunk, v *genome.WordView, b *bitPattern, base int) {
	plen := b.pair.PatternLen
	cand := sc.cand[:0]
	for pos0 := 0; pos0 < ch.Body; pos0 += 32 {
		fw := b.matchLanes(v, base+pos0, 0)
		rv := b.matchLanes(v, base+pos0, plen)
		union := fw | rv
		if union == 0 {
			continue
		}
		if rem := ch.Body - pos0; rem < 32 {
			union &= 1<<(uint(rem)*2) - 1
		}
		for u := union; u != 0; u &= u - 1 {
			bit := uint(bits.TrailingZeros64(u))
			var strand uint8
			if fw&(1<<bit) != 0 {
				strand |= genome.PAMFwd
			}
			if rv&(1<<bit) != 0 {
				strand |= genome.PAMRev
			}
			cand = append(cand, newCandidate(pos0+int(bit>>1), strand))
		}
	}
	sc.cand = cand
}

// candidatesFromShard loads the chunk's candidates from a genome artifact's
// precomputed PAM shard instead of scanning: entries carry absolute
// positions, which become chunk-local here. The shard was built by the same
// matchLanes prefilter over the whole sequence, and chunk bodies tile the
// sequence's candidate range exactly, so the resulting candidate set (and
// its ascending order) is identical to a fresh scan. Entries that violate
// the chunk geometry can only come from artifact damage and reject the
// chunk with a corruption-classed error, mirroring drainEntries.
func (sc *scanScratch) candidatesFromShard(ch *genome.Chunk, shard []uint64) error {
	if cap(sc.cand) < len(shard) {
		sc.cand = make([]candidate, 0, len(shard))
	}
	cand := sc.cand[:0]
	for _, e := range shard {
		pos := int(e>>2) - ch.Start
		strand := uint8(e & 3)
		if pos < 0 || pos >= ch.Body || strand == 0 {
			return fault.Errorf(fault.SiteArtifact, fault.Corruption,
				"search: chunk %s:%d: PAM shard entry %#x outside the %d-position chunk body", ch.SeqName, ch.Start, e, ch.Body)
		}
		cand = append(cand, newCandidate(pos, strand))
	}
	sc.cand = cand
	return nil
}
