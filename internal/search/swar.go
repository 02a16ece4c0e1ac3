package search

import (
	"math/bits"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
)

// The SWAR (SIMD-within-a-register) core processes 32 bases per uint64
// instead of one base per load. A guide is compiled once into per-word lane
// masks: its single-base lanes (A, C, G, T) as a lane set and their 2-bit
// codes, so one XOR with a window word and one OnesCount64 bound the word's
// mismatches, and its degenerate lanes (R, Y, S, W, K, M, B, D, H, V) as one
// accumulator per nucleotide, matched against the window's equality planes
// only where the bound passes. PAM-candidate finding tests 32 genome
// positions per iteration. The per-base scalar and byte paths it replaced
// are the equivalence-test references in ref_test.go.

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

// guideWord is one 32-base word of one strand half of a compiled guide. Lane
// bit 2·(k mod 32) of lanes is set for every indexed position k in the word
// whose pattern code names one base, and code holds that base's 2-bit code in
// lane k; deg has the bit set for every other indexed position, and acc[c]
// for each of those whose pattern mask admits 2-bit code c.
type guideWord struct {
	lanes, code, deg uint64
	acc              [4]uint64
}

// bound counts the single-base lanes that the window x (code word) with
// unknown lanes unk mismatches: lanes unknown in the genome or holding
// another code. It never exceeds the word's mismatches and equals them when
// the word has no degenerate lanes.
func (g *guideWord) bound(x, unk uint64) int {
	d := x ^ g.code
	return bits.OnesCount64((d | d>>1 | unk) & g.lanes)
}

// degenerate counts the degenerate lanes the window mismatches: lanes
// unknown in the genome, or whose code is outside the pattern mask. bound
// plus degenerate is the word's mismatch count, the SWAR replacement for 32
// iterations of the scalar IUPAC ladder.
func (g *guideWord) degenerate(x, unk uint64) int {
	a, c, gg, t := eqPlanes(x)
	return bits.OnesCount64(g.deg &^ ((a&g.acc[0] | c&g.acc[1] | gg&g.acc[2] | t&g.acc[3]) &^ unk))
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
				g, sh := &row[e.k>>5], uint(e.k&31)*2
				bit := uint64(1) << sh
				if e.m&(e.m-1) == 0 {
					g.lanes |= bit
					g.code |= uint64(bits.TrailingZeros8(uint8(e.m))) << sh
					continue
				}
				g.deg |= bit
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
