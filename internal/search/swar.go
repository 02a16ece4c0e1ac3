package search

import (
	"math/bits"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
)

// The SWAR (SIMD-within-a-register) core processes 32 bases per uint64
// instead of one base per load. A window word is split into four equality
// planes, one per 2-bit code, with the genome's unknown lanes cleared; a
// guide is compiled once into per-word lane masks — the set of indexed lanes
// plus one accumulator word per nucleotide marking the lanes whose IUPAC mask
// admits that base. Mismatch counting is then four ANDs, three ORs, one
// AND-NOT and one OnesCount64 per pattern word, and PAM-candidate finding
// tests 32 genome positions per iteration. The per-base scalar and byte paths
// it replaced are the equivalence-test references in ref_test.go.

// bitIdx is one indexed pattern position of a strand half: its offset from
// the window start and its IUPAC mask.
type bitIdx struct {
	k int32
	m genome.Mask
}

// bitPattern is a scaffold compiled for the 32-wide candidate finder: per
// strand half, the indexed (non-N) positions in ascending order, which
// matchLanes walks so each iteration prunes 32 positions against one
// pattern position.
type bitPattern struct {
	idx [2][]bitIdx
}

// compileBitPattern lists the indexed positions of both strand halves.
func compileBitPattern(pair *kernels.PatternPair) *bitPattern {
	b := new(bitPattern)
	for h := range b.idx {
		offset := h * pair.PatternLen
		for _, k := range pair.Index[offset : offset+pair.PatternLen] {
			if k == -1 {
				break
			}
			b.idx[h] = append(b.idx[h], bitIdx{k: k, m: genome.MaskOf(pair.Codes[offset+int(k)])})
		}
	}
	return b
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

// windowPlanes are the equality planes of one 32-base window word with its
// unknown lanes cleared: lane bit 2i of plane c is set when lane i holds a
// known base of 2-bit code c.
type windowPlanes [4]uint64

// guideWord is one 32-base word of one strand half of a compiled guide.
// lanes has lane bit 2·(k mod 32) set for every indexed position k in the
// word; acc[c] has it set when the pattern mask at k admits 2-bit code c.
type guideWord struct {
	lanes uint64
	acc   [4]uint64
}

// mismatches counts the word's indexed lanes that no plane matches: lanes
// unknown in the genome, or whose code is outside the pattern mask. This is
// the SWAR replacement for 32 iterations of the scalar IUPAC ladder.
func (g *guideWord) mismatches(p *windowPlanes) int {
	return bits.OnesCount64(g.lanes &^ (p[0]&g.acc[0] | p[1]&g.acc[1] | p[2]&g.acc[2] | p[3]&g.acc[3]))
}

// guideTable is every guide of a request compiled into one flat slice: row
// 2·qi+h (guide qi, strand half h) is words guideWords long and starts at
// (2·qi+h)·words. All guides of a request share one pattern length.
type guideTable struct {
	words int // pattern words per strand half: ceil(PatternLen/32)
	rows  []guideWord
}

// compileGuides lowers each guide's indexed positions, as compileBitPattern
// lists them, to per-word lane masks.
func compileGuides(guides []*kernels.PatternPair, plen int) guideTable {
	t := guideTable{words: (plen + 31) / 32}
	t.rows = make([]guideWord, 2*len(guides)*t.words)
	for qi, pair := range guides {
		for h, idx := range compileBitPattern(pair).idx {
			row := t.rows[(2*qi+h)*t.words:][:t.words]
			for _, e := range idx {
				g, bit := &row[e.k>>5], uint64(1)<<(uint(e.k&31)*2)
				g.lanes |= bit
				for c := range g.acc {
					if e.m&(1<<c) != 0 {
						g.acc[c] |= bit
					}
				}
			}
		}
	}
	return t
}

// scoreTail adds words 1.. of row r to mm, word 0's count, giving up as
// soon as the count exceeds the limit: the count passes when it is <= limit.
// The pass/fail decision and the passing counts are identical to the scalar
// paths; a failing count may exceed the scalar's limit+1 because whole words
// are counted at a time.
func (t *guideTable) scoreTail(planes []windowPlanes, r, mm, limit int) int {
	row := t.rows[r*t.words:][:len(planes)]
	for w := 1; w < len(row) && mm <= limit; w++ {
		mm += row[w].mismatches(&planes[w])
	}
	return mm
}

// matchLanes tests 32 consecutive candidate positions pos0..pos0+31 against
// strand half h (0 forward, 1 reverse), returning a word whose lane bit 2i is
// set when the window at pos0+i matches every indexed pattern position.
// For each indexed position k it loads the (unaligned) window at pos0+k,
// whose lane i is genome base pos0+i+k, and prunes the surviving lane set;
// scaffold matches are rare, so the loop usually exits after one or two
// pattern positions with lanes == 0.
func (b *bitPattern) matchLanes(v *genome.WordView, pos0, h int) uint64 {
	lanes := uint64(genome.LaneMask)
	for _, e := range b.idx[h] {
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

// findSWARCandidates is the word-parallel PAM prefilter over the body
// positions base..base+body-1 of v: 32 candidate positions per iteration,
// both strands, with the tail past the body clamped off. Candidates come
// out in ascending position and in v's coordinates, the layout and order of
// an artifact PAM shard, so downstream phases cannot tell which ran: base is
// 0 when v is the chunk's own word view, ch.Start when v is a
// whole-sequence view resident in a genome artifact (the chunk aliases
// sequence bytes, so the windows are the same bases either way).
func (sc *scanScratch) findSWARCandidates(v *genome.WordView, b *bitPattern, base, body int) {
	cand := sc.cand[:0]
	for pos0 := 0; pos0 < body; pos0 += 32 {
		fw := b.matchLanes(v, base+pos0, 0)
		rv := b.matchLanes(v, base+pos0, 1)
		union := fw | rv
		if union == 0 {
			continue
		}
		if rem := body - pos0; rem < 32 {
			union &= 1<<(uint(rem)*2) - 1
		}
		// A candidate's strand bits are read, not branched on: strands are
		// close to random, so two ifs would mispredict about once per
		// candidate. This relies on PAMFwd == 1 and PAMRev == 2, as the
		// compare does when it reads bit h as strand half h.
		for u := union; u != 0; u &= u - 1 {
			bit := uint(bits.TrailingZeros64(u))
			strand := uint8(fw>>bit&1) | uint8(rv>>bit&1)<<1
			cand = append(cand, genome.NewPAMEntry(base+pos0+int(bit>>1), strand))
		}
	}
	sc.cand = cand
}
