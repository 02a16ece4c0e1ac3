package kernels

import (
	"fmt"
	"math/bits"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
)

// A cost plan prices a launch's accesses once instead of once per access.
// What a work-item is charged for one step of a strand walk — index read,
// ladder terms, loci reload, chr load, branch — depends only on the pattern
// tables and the variant's comparerCosts, and those are uniform across the
// launch; the genome decides only *where* an item leaves the walk. So the
// kernels build, per strand, a prefix table of the exact gpu.Stats an item
// has accrued at each point it can leave, count exits in a per-group
// histogram, and add Σ hist[e]·exit[e] to the worker's shard once per group.
// The tables are filled by calling the same Stats hooks, in the same order,
// as the per-access reference bodies, so the totals are equal counter for
// counter.
//
// The group bodies compute *where* items leave without a branch per pattern
// entry, and both read the chunk's one 2-bit genome.WordView, built on the
// host when the chunk is staged (ChunkView), never a per-launch copy. The
// finder, whose threshold is zero, walks a block of up to 64 sites as two
// halves of 32 lanes: for each evaluated entry j it loads the view window at
// the half's first site plus k_j, and the live lanes whose base is unknown
// or outside code_j's IUPAC mask (genome.MatchLanes) leave the walk at once
// (walkLanes). The comparer scores a candidate from one mismatch mask per
// 32-base word: the guide's staged strands are genome.GuideWords
// (stageWords), and a window's mask is its XOR with the strand's code word
// plus its degenerate and unknown lanes. The index lists the evaluated
// lanes in ascending order, so an item leaves by the entry of the
// (threshold+1)-th set bit, its rank among the evaluated lanes (wordExit).

// strandPlan is one strand's share of a cost plan.
type strandPlan struct {
	// n is the number of index entries the walk evaluates (the pattern's
	// non-N positions).
	n int
	// exit[e] is everything an item has accrued for this strand when it
	// leaves the walk on the threshold test after entry e; the last exit is
	// the completed walk.
	exit []gpu.Stats
}

// walkCosts spells one kernel's strand walk in the Stats hooks it executes.
type walkCosts struct {
	enter gpu.Stats                 // before the first entry
	step  func(terms int) gpu.Stats // one evaluated entry: a ladder of terms
	early gpu.Stats                 // leaving on the threshold test
}

// planStrand prices the walk over one strand's index array idx and pattern
// codes (each of the pattern's length). Entries outside the pattern are
// rejected here, once, so the group loop can index without checking, and so
// are entries out of ascending order: the comparer's exit is a lane's rank
// in position order.
func planStrand(idx []int32, codes []byte, w *walkCosts) (strandPlan, error) {
	plen := len(idx)
	var sp strandPlan
	for sp.n < plen && idx[sp.n] != -1 {
		k := idx[sp.n]
		if k < 0 || int(k) >= plen {
			return sp, fmt.Errorf("index entry %d outside the %d-base pattern", k, plen)
		}
		if sp.n > 0 && k <= idx[sp.n-1] {
			return sp, fmt.Errorf("index entry %d after %d: entries must ascend", k, idx[sp.n-1])
		}
		sp.n++
	}
	sp.exit = make([]gpu.Stats, 0, sp.n+1)
	acc := w.enter
	for j := 0; j < sp.n; j++ {
		cost := w.step(ladderPos[codes[idx[j]]])
		acc.Add(&cost)
		sp.exit = append(sp.exit, acc)
		sp.exit[j].Add(&w.early)
	}
	if sp.n < plen { // the -1 terminator is read, and ends the loop
		acc.LoadLocal()
		acc.Branch(false)
	}
	sp.exit = append(sp.exit, acc)
	return sp, nil
}

// planStrands prices both strands of a pattern pair.
func planStrands(p *PatternPair, w *walkCosts) (s [2]strandPlan, err error) {
	plen := p.PatternLen
	if plen < 1 || len(p.Codes) < 2*plen || len(p.Index) < 2*plen {
		return s, fmt.Errorf("pattern tables of %d codes and %d index entries for length %d",
			len(p.Codes), len(p.Index), plen)
	}
	for i := range s {
		if s[i], err = planStrand(p.Index[i*plen:(i+1)*plen], p.Codes[i*plen:(i+1)*plen], w); err != nil {
			return s, err
		}
	}
	return s, nil
}

// stageGroup is phase 0 of both kernels: copy the pattern pair's codes and
// index arrays into the worker's local staging arrays and account the
// group's staging traffic plus what each of its items executes before the
// barrier.
func stageGroup(g *gpu.Group, p *PatternPair, lCodes []byte, lIndex []int32, stage, item *gpu.Stats) {
	n := 2 * p.PatternLen
	copy(lCodes[:n], p.Codes)
	copy(lIndex[:n], p.Index)
	st := g.Stats()
	st.Add(stage)
	st.AddScaled(item, int64(g.Size()))
}

// stageWords rewrites one worker's guide words for both strands from the
// group's staged arrays: strand s's evaluated entries are its half of idx
// and index its half of codes. planStrand has checked the same entries
// against the pattern, so they index codes safely.
func stageWords(strand *[2]strandPlan, words [2][]genome.GuideWord, codes []byte, idx []int32, plen int) {
	for s := range strand {
		clear(words[s])
		off := s * plen
		for _, k := range idx[off : off+strand[s].n] {
			words[s][k>>5].Add(int(k), genome.MaskOf(codes[off+int(k)]))
		}
	}
}

// wordExit scores one strand's words against the view window at pos and
// returns the exit the item leaves the walk by, and the mismatches counted
// up to it: the evaluated-lane rank of the (threshold+1)-th mismatching lane
// and threshold+1, or, when the window mismatches no more than threshold
// lanes, the completed walk's exit and the count.
func wordExit(words []genome.GuideWord, v *genome.WordView, pos, threshold int) (exit, mm int) {
	for w := range words {
		g := &words[w]
		x, unk := v.Window(pos + 32*w)
		m := g.BoundMask(x, unk) | g.DegenerateMask(x, unk)
		c := bits.OnesCount64(m)
		if mm+c > threshold {
			for r := threshold - mm; r > 0; r-- {
				m &= m - 1
			}
			return exit + bits.OnesCount64(g.Lanes()&((m&-m)-1)), threshold + 1
		}
		mm += c
		exit += bits.OnesCount64(g.Lanes())
	}
	return exit, mm
}

// newHist returns one worker's exit histograms, a counter per exit of each
// strand.
func newHist(strand *[2]strandPlan) [2][]int64 {
	n := len(strand[0].exit)
	h := make([]int64, n+len(strand[1].exit))
	return [2][]int64{h[:n], h[n:]}
}

// newWords returns one worker's guide words, ceil(plen/32) per strand,
// which the comparer rewrites after every barrier.
func newWords(plen int) [2][]genome.GuideWord {
	n := (plen + 31) / 32
	w := make([]genome.GuideWord, 2*n)
	return [2][]genome.GuideWord{w[:n], w[n:]}
}

// fold adds the histogram's exits to the shard and clears it for the
// worker's next group.
func (sp *strandPlan) fold(st *gpu.Stats, hist []int64) {
	for e, h := range hist {
		if h != 0 {
			st.AddScaled(&sp.exit[e], h)
			hist[e] = 0
		}
	}
}

// diverged accounts n taken, divergent branches.
func diverged(st *gpu.Stats, n int) {
	st.Branches += int64(n)
	st.DivergentBranches += int64(n)
}

// inRange returns how many of a group's work-items fall below limit.
func inRange(g *gpu.Group, limit int) int {
	return min(max(limit-g.Base(), 0), g.Size())
}
