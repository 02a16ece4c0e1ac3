package kernels

import (
	"fmt"
	"math/bits"
	"sync"

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
// entry: each evaluated entry j reads one byte of the process-wide
// mismatchRows table, row code_j indexed by chr[pos+k_j]. The comparer adds
// those bytes per item until the count passes the threshold; the finder,
// whose threshold is zero, turns one entry's rows over a block of up to 64
// sites into a lane mask and retires the mismatching lanes of the block at
// once (walkBlock).

// mismatchRows returns the table whose [code][base] entry is 1 when the
// genome base fails to match the pattern code — !genome.Matches, the
// Listing 1 ladder's verdict — and 0 when it matches. Every launch reads its
// rows from this one table. It is built on first use, so a program that
// never launches a simulated kernel pays neither its 64 KiB nor the 65 536
// Matches calls at start-up.
var mismatchRows = sync.OnceValue(func() *[256][256]uint8 {
	t := new([256][256]uint8)
	for c := range t {
		for b := range t[c] {
			if !genome.Matches(byte(c), byte(b)) {
				t[c][b] = 1
			}
		}
	}
	return t
})

// term is one evaluated index entry of a staged strand: the entry's offset
// into the window and the mismatch row of the pattern code there.
type term struct {
	k   int
	row *[256]uint8
}

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
// rejected here, once, so the group loop can index without checking.
func planStrand(idx []int32, codes []byte, w *walkCosts) (strandPlan, error) {
	plen := len(idx)
	var sp strandPlan
	for sp.n < plen && idx[sp.n] != -1 {
		if k := idx[sp.n]; k < 0 || int(k) >= plen {
			return sp, fmt.Errorf("index entry %d outside the %d-base pattern", k, plen)
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

// restage rewrites one worker's terms for both strands from the group's
// staged arrays: strand s's entries are its half of idx, plen long, and
// index its half of codes. planStrand has checked the same entries against
// the pattern, so they index codes safely.
func restage(strand *[2]strandPlan, terms [2][]term, codes []byte, idx []int32, plen int) {
	rows := mismatchRows()
	for s := range strand {
		off := s * plen
		for j, k := range idx[off : off+strand[s].n] {
			terms[s][j] = term{int(k), &rows[codes[off+int(k)]]}
		}
	}
}

// walk compares one strand's terms with the genome at pos. It returns the
// exit the item left by — len(terms), the plan's last exit, when the walk
// completed — and the mismatches counted up to it.
func walk(terms []term, chr []byte, pos, threshold int) (exit, mm int) {
	for j, t := range terms {
		mm += int(t.row[chr[pos+t.k]])
		if mm > threshold {
			return j, mm
		}
	}
	return len(terms), mm
}

// walkBlock is walk at threshold zero for the block of sites b, b+1, …
// whose lanes are set in live (bit l is site b+l; at most 64, from bit 0
// up). Each term's mismatching live lanes leave by its exit and drop out;
// the walk stops when no lane is left. It adds the lanes' exits to hist and
// returns the lanes that completed the walk.
func walkBlock(terms []term, chr []byte, b int, live uint64, hist []int64) uint64 {
	w := bits.Len64(live)
	for j, t := range terms {
		mm := laneMask(t.row, chr[b+t.k:b+t.k+w]) & live
		hist[j] += int64(bits.OnesCount64(mm))
		if live &^= mm; live == 0 {
			return 0
		}
	}
	hist[len(terms)] += int64(bits.OnesCount64(live))
	return live
}

// laneMask returns the bits row[win[l]] << l for the window's lanes l, eight
// lanes per step.
func laneMask(row *[256]uint8, win []byte) (mm uint64) {
	l := 0
	for ; l+8 <= len(win); l += 8 {
		c := win[l : l+8 : l+8]
		mm |= (uint64(row[c[0]]) | uint64(row[c[1]])<<1 | uint64(row[c[2]])<<2 | uint64(row[c[3]])<<3 |
			uint64(row[c[4]])<<4 | uint64(row[c[5]])<<5 | uint64(row[c[6]])<<6 | uint64(row[c[7]])<<7) << l
	}
	for ; l < len(win); l++ {
		mm |= uint64(row[win[l]]) << l
	}
	return mm
}

// newHist returns one worker's exit histograms, a counter per exit of each
// strand.
func newHist(strand *[2]strandPlan) [2][]int64 {
	n := len(strand[0].exit)
	h := make([]int64, n+len(strand[1].exit))
	return [2][]int64{h[:n], h[n:]}
}

// newTerms returns one worker's terms, one per evaluated entry of each
// strand, which the group bodies restage after every barrier.
func newTerms(strand *[2]strandPlan) [2][]term {
	n := strand[0].n
	t := make([]term, n+strand[1].n)
	return [2][]term{t[:n], t[n:]}
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
