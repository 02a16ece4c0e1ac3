package kernels

import (
	"fmt"
	"math/bits"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
)

// Finder is the "search" kernel bound to one launch's arguments: one
// work-item per candidate site start, selecting the sites that contain the
// PAM sequence on either strand (§II.A). Phase 0 stages the pattern pair and
// its index arrays into shared local memory (the kernel's __constant
// pattern argument in OpenCL, a constant_buffer accessor in SYCL); the phase
// boundary is the kernel's barrier; phase 1 tests every site of the group
// and compacts matches through the output arena.
type Finder struct {
	a      *FinderArgs
	strand [2]strandPlan
	// stage is one group's staging traffic, item what every work-item
	// executes before the barrier, store one compacted match.
	stage, item, store gpu.Stats
}

// NewFinder validates the arguments and builds the launch's cost plan.
func NewFinder(a *FinderArgs) (*Finder, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	f := &Finder{a: a}
	var err error
	f.strand, err = planStrands(a.Pattern, &walkCosts{step: func(terms int) (c gpu.Stats) {
		c.LoadLocal()
		c.LoadLocalN(1 + terms)
		c.LoadGlobal(1) // chr[i+k]
		c.ALU(aluPerTerm*terms + 2)
		c.Branch(true)
		return c
	}})
	if err != nil {
		return nil, fmt.Errorf("kernels: finder: %w", err)
	}
	f.item.ALU(2) // the local index
	for k := 0; k < 2*a.Pattern.PatternLen; k++ {
		f.stage.LoadConstant()
		f.stage.LoadConstant()
		f.stage.StoreLocalN(2)
	}
	f.store.StoreGlobal(4)
	f.store.StoreGlobal(1)
	return f, nil
}

// Phases returns the kernel's two phases for one worker. lPat and lPatIndex
// are the worker's local staging arrays ("l_pat", "l_pat_index" in
// Table VI), each of length 2*PatternLen.
func (f *Finder) Phases(lPat []byte, lPatIndex []int32) []gpu.Phase {
	hist := newHist(&f.strand)
	return []gpu.Phase{
		func(g *gpu.Group) { stageGroup(g, f.a.Pattern, lPat, lPatIndex, &f.stage, &f.item) },
		func(g *gpu.Group) { f.scanGroup(g, lPat, lPatIndex, hist) },
	}
}

// laneFlag maps a site's completed strands, forward in bit 0 and reverse in
// bit 1, to its finder flag.
var laneFlag = [4]byte{1: FlagForward, 2: FlagReverse, 3: FlagBoth}

// scanGroup tests the group's sites in blocks of up to 64, each block as two
// halves of up to 32 lanes of view windows, lane bit 2i for site i of the
// half: both strands are walked for the whole half at once (walkLanes), and
// the block's matched sites claim their slots with one ClaimN and are
// stored in ascending site order — the slots, flags and counters k Claim
// calls, one per matched site, would have produced.
func (f *Finder) scanGroup(g *gpu.Group, lPat []byte, lPatIndex []int32, hist [2][]int64) {
	a, plen := f.a, f.a.Pattern.PatternLen
	base, n := g.Base(), inRange(g, a.Sites)
	// Items past the last site, sites matching on neither strand and
	// matches an exhausted arena drops each end on one divergent branch.
	branches, stores := g.Size()-n, 0
	for b := base; b < base+n; b += 64 {
		w := min(base+n-b, 64)
		var fwd, rev [2]uint64 // per half
		matched := 0
		for h := 0; 32*h < w; h++ {
			live := uint64(genome.LaneMask) >> (64 - 2*min(w-32*h, 32))
			pos := a.Base + b + 32*h
			fwd[h] = walkLanes(lPatIndex[:f.strand[0].n], lPat, a.View, pos, live, hist[0])
			rev[h] = walkLanes(lPatIndex[plen:plen+f.strand[1].n], lPat[plen:], a.View, pos, live, hist[1])
			matched += bits.OnesCount64(fwd[h] | rev[h])
		}
		// An exhausted arena grants a prefix of the block's matches; the
		// drops are counted in Arena.Overflow and the host refits the arena
		// and relaunches, so no site is ever lost.
		slot, got := a.Arena.ClaimN(g, matched)
		for h, left := 0, got; left > 0; h++ {
			for m := fwd[h] | rev[h]; m != 0 && left > 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				a.Loci[slot] = uint32(b + 32*h + l>>1)
				a.Flags[slot] = laneFlag[fwd[h]>>l&1|rev[h]>>l&1<<1]
				slot++
				left--
			}
		}
		branches += w - got
		stores += got
	}
	st := g.Stats()
	f.strand[0].fold(st, hist[0])
	f.strand[1].fold(st, hist[1])
	diverged(st, branches)
	st.AddScaled(&f.store, int64(stores))
}

// walkLanes is one strand's walk at threshold zero over the sites whose
// lanes are set in live, lane bit 2i for the site at view position pos+i.
// Evaluated entry j of idx, offset k into the window, loads the view window
// at pos+k, and its live lanes whose base is unknown or outside the IUPAC
// mask of codes[k] mismatch (genome.MatchLanes): they leave by its exit and
// drop out, and the walk stops when no lane is left. It adds the lanes'
// exits to hist and returns the lanes that completed the walk.
func walkLanes(idx []int32, codes []byte, v *genome.WordView, pos int, live uint64, hist []int64) uint64 {
	for j, k := range idx {
		x, unk := v.Window(pos + int(k))
		mm := live &^ genome.MatchLanes(genome.MaskOf(codes[k]), x, unk)
		hist[j] += int64(bits.OnesCount64(mm))
		if live &^= mm; live == 0 {
			return 0
		}
	}
	hist[len(idx)] += int64(bits.OnesCount64(live))
	return live
}

// FinderLocalBytes returns the shared-local-memory bytes one work-group of
// the finder uses for a pattern of length plen.
func FinderLocalBytes(plen int) int { return 2*plen + 4*2*plen }
