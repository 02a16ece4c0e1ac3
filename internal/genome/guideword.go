package genome

import "math/bits"

// EqPlanes splits a 32-lane code word into four equality planes: lane bit
// 2i of plane c is set when lane i holds 2-bit code c.
func EqPlanes(x uint64) (a, c, g, t uint64) {
	hi := x >> 1
	a = ^(x | hi) & LaneMask
	c = (x &^ hi) & LaneMask
	g = (hi &^ x) & LaneMask
	t = (x & hi) & LaneMask
	return
}

// MatchLanes returns the lanes of a 32-lane window, code word x with
// unknown lanes unk, whose base matches a pattern position of mask m as
// Matches has it: lane bit 2i is set when lane i holds a known base inside
// m, or, under an N (m == MaskAny), an ambiguous base (an unknown lane of
// code 0). The CPU PAM prefilter and the simulated finder test each
// indexed pattern position with it.
func MatchLanes(m Mask, x, unk uint64) uint64 {
	hi := x >> 1
	if m == MaskAny {
		return ^(unk & (x | hi)) & LaneMask
	}
	// The equality plane of each code in m, selected by its mask bit
	// negated to all ones.
	hit := ^(x|hi)&-uint64(m&MaskA) | x&^hi&-uint64(m>>1&1) | hi&^x&-uint64(m>>2&1) | x&hi&-uint64(m>>3)
	return hit &^ unk & LaneMask
}

// GuideWord is one 32-base word of one strand of a compiled pattern, scored
// against a WordView window: lane i of the word is pattern position 32w+i.
// Lane bit 2i of lanes is set for every added position whose pattern code
// names one base, and code holds that base's 2-bit code in lane i; deg has
// the bit set for every other added position, acc[c] for each of those whose
// pattern mask admits 2-bit code c, and wild for each whose mask is N. A
// code that is no nucleotide is a deg lane no plane admits.
//
// The verdicts are Matches': a lane unknown in the genome fails every
// pattern code but N, which an ambiguous base passes and an invalid byte
// (an unknown lane with a nonzero code, see NewWordView) fails.
type GuideWord struct {
	lanes, code, deg, wild uint64
	acc                    [4]uint64
}

// Add puts the pattern position with mask m at lane k mod 32.
func (g *GuideWord) Add(k int, m Mask) {
	sh := uint(k&31) * 2
	bit := uint64(1) << sh
	if m != MaskNone && m&(m-1) == 0 {
		g.lanes |= bit
		g.code |= uint64(bits.TrailingZeros8(uint8(m))) << sh
		return
	}
	g.deg |= bit
	for c := range g.acc {
		if m&(1<<c) != 0 {
			g.acc[c] |= bit
		}
	}
	if m == MaskAny {
		g.wild |= bit
	}
}

// Lanes returns the lane bit of every added position.
func (g *GuideWord) Lanes() uint64 { return g.lanes | g.deg }

// Bound counts the single-base lanes that the window x (code word) with
// unknown lanes unk mismatches: lanes unknown in the genome or holding
// another code. It never exceeds the word's mismatches and equals them when
// the word has no degenerate lanes.
func (g *GuideWord) Bound(x, unk uint64) int {
	return bits.OnesCount64(g.BoundMask(x, unk))
}

// BoundMask returns the lanes Bound counts.
func (g *GuideWord) BoundMask(x, unk uint64) uint64 {
	d := x ^ g.code
	return (d | d>>1 | unk) & g.lanes
}

// Degenerate counts the degenerate lanes the window mismatches. Bound plus
// Degenerate is the word's mismatch count, the SWAR replacement for 32
// iterations of the scalar IUPAC ladder.
func (g *GuideWord) Degenerate(x, unk uint64) int {
	return bits.OnesCount64(g.DegenerateMask(x, unk))
}

// DegenerateMask returns the lanes Degenerate counts: BoundMask |
// DegenerateMask is every added lane the window mismatches. Both inline, so
// a word without degenerate lanes costs a caller no call.
func (g *GuideWord) DegenerateMask(x, unk uint64) uint64 {
	if g.deg == 0 {
		return 0
	}
	return g.degenerate(x, unk)
}

// degenerate returns the degenerate lanes the window mismatches: a known
// lane whose code is outside the pattern mask, an unknown lane unless it is
// an ambiguous base under an N.
func (g *GuideWord) degenerate(x, unk uint64) uint64 {
	a, c, gg, t := EqPlanes(x)
	hit := (a&g.acc[0] | c&g.acc[1] | gg&g.acc[2] | t&g.acc[3]) &^ unk
	hit |= g.wild & unk &^ (x | x>>1)
	return g.deg &^ hit
}
