package kernels

import (
	"fmt"

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

func (f *Finder) scanGroup(g *gpu.Group, lPat []byte, lPatIndex []int32, hist [2][]int64) {
	a, plen := f.a, f.a.Pattern.PatternLen
	fwd, rev := &f.strand[0], &f.strand[1]
	base, n := g.Base(), inRange(g, a.Sites)
	// Items past the last site, sites matching on neither strand and
	// matches an exhausted arena drops each end on one divergent branch.
	branches, stores := g.Size()-n, 0
	for i := base; i < base+n; i++ {
		ef, _ := fwd.walk(lPat[:plen], lPatIndex[:plen], a.Chr, i, 0)
		er, _ := rev.walk(lPat[plen:2*plen], lPatIndex[plen:2*plen], a.Chr, i, 0)
		hist[0][ef]++
		hist[1][er]++
		var flag byte
		switch okF, okR := ef == len(fwd.exit)-1, er == len(rev.exit)-1; {
		case okF && okR:
			flag = FlagBoth
		case okF:
			flag = FlagForward
		case okR:
			flag = FlagReverse
		default:
			branches++
			continue
		}
		slot := a.Arena.Claim(g)
		if slot < 0 {
			// Arena exhausted: the drop is counted in Arena.Overflow and the
			// host grows the arena and relaunches, so no site is ever lost.
			branches++
			continue
		}
		a.Loci[slot] = uint32(i)
		a.Flags[slot] = flag
		stores++
	}
	st := g.Stats()
	fwd.fold(st, hist[0])
	rev.fold(st, hist[1])
	diverged(st, branches)
	st.AddScaled(&f.store, int64(stores))
}

// FinderLocalBytes returns the shared-local-memory bytes one work-group of
// the finder uses for a pattern of length plen.
func FinderLocalBytes(plen int) int { return 2*plen + 4*2*plen }
