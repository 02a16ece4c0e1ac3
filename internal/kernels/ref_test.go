package kernels

import (
	"bytes"
	"sort"
	"testing"

	"casoffinder/internal/baseline"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
)

// The per-access reference: the finder and comparer written the way the
// kernel source reads, one work-item at a time, calling a counting hook
// beside every modelled access. The group kernels are pinned against these
// bodies hit for hit and counter for counter (TestGroupMatchesReference,
// FuzzGroupKernels).

// mismatch reports whether the genome base fails to match the pattern code,
// with the semantics of the Listing 1 ladder (see genome.Matches).
func mismatch(patternCode, base byte) bool { return !genome.Matches(patternCode, base) }

// refFinderPhases is the finder as two per-item loops around its barrier.
func refFinderPhases(a *FinderArgs, lPat []byte, lPatIndex []int32) []gpu.Phase {
	return []gpu.Phase{
		func(g *gpu.Group) { g.Each(func(it *gpu.Item) { FinderStage(it, a, lPat, lPatIndex) }) },
		func(g *gpu.Group) { g.Each(func(it *gpu.Item) { FinderScan(g, it, a, lPat, lPatIndex) }) },
	}
}

// refComparerPhases is a comparer variant as two per-item loops around its
// barrier.
func refComparerPhases(v ComparerVariant, a *ComparerArgs, lComp []byte, lCompIndex []int32) []gpu.Phase {
	c := v.costs()
	return []gpu.Phase{
		func(g *gpu.Group) { g.Each(func(it *gpu.Item) { comparerStage(it, a, lComp, lCompIndex, c) }) },
		func(g *gpu.Group) { g.Each(func(it *gpu.Item) { comparerCompare(g, it, a, lComp, lCompIndex, c) }) },
	}
}

// FinderStage is the finder body up to its barrier: the group leader
// stages the pattern pair and index arrays into shared local memory.
func FinderStage(it *gpu.Item, a *FinderArgs, lPat []byte, lPatIndex []int32) {
	plen := a.Pattern.PatternLen
	i := it.GlobalID()
	li := i - it.GroupID()*it.LocalRange()
	it.ALU(2)

	if li == 0 {
		for k := 0; k < plen*2; k++ {
			lPat[k] = a.Pattern.Codes[k]
			lPatIndex[k] = a.Pattern.Index[k]
			it.LoadConstant()
			it.LoadConstant()
			it.StoreLocalN(2)
		}
	}
}

// FinderScan is the finder body after its barrier: test the item's site on
// both strands and compact matches through the atomic cursor.
func FinderScan(g *gpu.Group, it *gpu.Item, a *FinderArgs, lPat []byte, lPatIndex []int32) {
	plen := a.Pattern.PatternLen
	i := it.GlobalID()

	if i >= a.Sites {
		it.Branch(true)
		return
	}

	match := func(offset int) bool {
		for j := 0; j < plen; j++ {
			k := lPatIndex[offset+j]
			it.LoadLocal()
			if k == -1 {
				it.Branch(false)
				break
			}
			code := lPat[offset+int(k)]
			terms := ladderPos[code]
			it.LoadLocalN(1 + terms)
			it.LoadGlobal(1) // chr[i+k]
			it.ALU(aluPerTerm*terms + 2)
			it.Branch(true)
			if mismatch(code, a.Chr[i+int(k)]) {
				return false
			}
		}
		return true
	}

	fwd := match(0)
	rev := match(plen)
	var flag byte
	switch {
	case fwd && rev:
		flag = FlagBoth
	case fwd:
		flag = FlagForward
	case rev:
		flag = FlagReverse
	default:
		it.Branch(true)
		return
	}
	slot := a.Arena.Claim(g)
	if slot < 0 {
		it.Branch(true)
		return
	}
	a.Loci[slot] = uint32(i)
	a.Flags[slot] = flag
	it.StoreGlobal(4)
	it.StoreGlobal(1)
}

// comparerStage is L1-L8 of Listing 1 with the per-variant cost model
// applied: compute the local index and stage comp and comp_index into
// shared local memory (cooperatively for opt3+, leader-only before).
func comparerStage(it *gpu.Item, a *ComparerArgs, lComp []byte, lCompIndex []int32, c comparerCosts) {
	plen := a.Guide.PatternLen
	i := it.GlobalID()
	li := i - it.GroupID()*it.LocalRange() // L1 of Listing 1
	it.ALU(2)

	// L2-L8: stage comp and comp_index into shared local memory.
	if c.coopPrefetch {
		wg := it.LocalRange()
		for k := li; k < plen*2; k += wg {
			lComp[k] = a.Guide.Codes[k]
			lCompIndex[k] = a.Guide.Index[k]
			it.LoadGlobal(1)
			it.LoadGlobal(4)
			it.StoreLocalN(2)
		}
	} else if li == 0 {
		for k := 0; k < plen*2; k++ {
			lComp[k] = a.Guide.Codes[k]
			lCompIndex[k] = a.Guide.Index[k]
			it.LoadGlobal(1)
			it.LoadGlobal(4)
			it.StoreLocalN(2)
		}
	}
}

// comparerCompare is L9-L42 of Listing 1, after the barrier: for each
// flagged strand walk the guide's index array, counting mismatches with
// early exit past the threshold, and compact passing entries through the
// atomic entry counter.
func comparerCompare(g *gpu.Group, it *gpu.Item, a *ComparerArgs, lComp []byte, lCompIndex []int32, c comparerCosts) {
	plen := a.Guide.PatternLen
	i := it.GlobalID()

	if uint32(i) >= a.LociCount {
		it.Branch(true)
		return
	}

	flag := a.Flags[i]
	it.LoadGlobal(1)
	for r := 1; r < c.flagLoads; r++ {
		it.LoadGlobalRedundant(1)
	}
	locus := int(a.Loci[i])
	if !c.lociPerIter && !c.lociPerHalf {
		it.LoadGlobal(4) // opt2+: loci[i] registered once per item
	}

	// compareStrand walks one half of the index array (L9-L24 forward,
	// L26-L42 reverse). offset selects the strand; pattern characters live
	// at lComp[k+offset] and reference characters at chr[locus+k].
	firstLociRead := true
	readLocus := func() {
		if firstLociRead {
			it.LoadGlobal(4)
			firstLociRead = false
			return
		}
		it.LoadGlobalRedundant(4)
	}

	compareStrand := func(offset int) (uint16, bool) {
		if c.lociPerHalf {
			readLocus() // opt1: loci[i] hoisted out of the loop
		}
		var mm uint16
		for j := 0; j < plen; j++ {
			k := lCompIndex[offset+j]
			it.LoadLocal()
			if k == -1 {
				it.Branch(false)
				break
			}
			code := lComp[offset+int(k)]
			terms := ladderPos[code]
			if c.ldsPerTerm {
				it.LoadLocalN(terms)
			} else {
				it.LoadLocal() // opt4: one LDS read, then a register
			}
			if c.lociPerIter {
				readLocus() // base: loci[i] reloaded per iteration
			}
			it.LoadGlobal(1) // chr[loci[i]+k]
			it.ALU(aluPerTerm*terms + 2)
			it.Branch(true)
			if mismatch(code, a.Chr[locus+int(k)]) {
				mm++
				if mm > a.Threshold {
					it.Branch(true)
					return mm, false
				}
			}
		}
		return mm, true
	}

	// store compacts one passing entry (L19-L23 / L36-L40) through the
	// output arena.
	store := func(mm uint16, dir byte) {
		slot := a.Arena.Claim(g)
		if slot < 0 {
			it.Branch(true)
			return
		}
		a.MMCount[slot] = mm
		a.Direction[slot] = dir
		a.MMLoci[slot] = uint32(locus)
		if c.lociPerIter {
			readLocus() // base: mm_loci[slot] = loci[i] reloads again
		}
		it.StoreGlobal(2)
		it.StoreGlobal(1)
		it.StoreGlobal(4)
	}

	if flag == FlagBoth || flag == FlagForward {
		it.Branch(true)
		if mm, ok := compareStrand(0); ok && mm <= a.Threshold {
			store(mm, DirForward)
		}
	}
	if flag == FlagBoth || flag == FlagReverse {
		it.Branch(true)
		if mm, ok := compareStrand(plen); ok && mm <= a.Threshold {
			store(mm, DirReverse)
		}
	}
}

// pipelineRun is one finder-then-comparer pass over a chunk through the raw
// simulator.
type pipelineRun struct {
	seq            []byte
	pattern, guide string
	maxMM          int
	variant        ComparerVariant
	wg             int
	// ref runs the per-access reference bodies instead of the group kernels.
	ref bool
	// pageSlots, when positive, undersizes the arena pages so groups that
	// emit more drop entries (Claim returns -1); zero provisions the worst
	// case.
	pageSlots int
	// viewBase places chr at that base of the kernels' word view (ChunkView),
	// as an artifact's resident view places a chunk.
	viewBase int
}

// viewOf returns the word view of chr at base 0. An invalid byte is an
// unknown lane of code 3, which every pattern code mismatches.
func viewOf(chr []byte) ChunkView {
	v, _ := genome.NewWordView(chr, nil)
	return ChunkView{View: v}
}

// pipelineResult is what a pass produced: sorted hits, the launch
// statistics, and the entries either arena dropped.
type pipelineResult struct {
	hits             []baseline.Hit
	finder, comparer *gpu.Stats
	dropped          [2]uint32
}

// gatherGroups concatenates the arena's entries by owning work-group,
// reading each group's page up to its capacity. Unlike alloc.Gather it
// tolerates a launch that overflowed its pages.
func gatherGroups[T any](h *alloc.Host, src []T) []T {
	var dst []T
	for g, p := range h.PageOf {
		if p == alloc.NoPage || p == alloc.PageOverflow {
			continue
		}
		base := int(p) * h.Layout.PageSlots
		dst = append(dst, src[base:base+min(int(h.Count[g]), h.Layout.PageSlots)]...)
	}
	return dst
}

// run executes the pass; kernel-construction and launch errors are
// returned. An arena that dropped nothing must decode.
func (p pipelineRun) run(t testing.TB, dev *gpu.Device) (*pipelineResult, error) {
	t.Helper()
	pat, err := NewPatternPair([]byte(p.pattern))
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	gd, err := NewPatternPair([]byte(p.guide))
	if err != nil {
		t.Fatalf("guide: %v", err)
	}
	chr, wg := p.seq, p.wg // scanned in place; the match tables fold case
	sites := max(len(chr)-pat.PatternLen+1, 0)
	arena := func(groups, worst int) *alloc.Host {
		if p.pageSlots > 0 {
			worst = p.pageSlots
		}
		return alloc.NewHost(alloc.WorstCase(groups, worst))
	}
	res := &pipelineResult{}

	gws := max((sites+wg-1)/wg*wg, wg)
	farena := arena(gws/wg, wg)
	// The kernels read chr's word view; a run with viewBase > 0 reads it at
	// that offset into a view whose leading bases are no part of the chunk.
	view := viewOf(append(bytes.Repeat([]byte("x"), p.viewBase), chr...))
	view.Base = p.viewBase
	fa := &FinderArgs{
		Chr:       chr,
		ChunkView: view,
		Pattern:   pat,
		Sites:     sites,
		Loci:      make([]uint32, farena.Layout.Slots()),
		Flags:     make([]byte, farena.Layout.Slots()),
		Arena:     farena.Device(),
	}
	finder, err := NewFinder(fa)
	if err != nil {
		return nil, err
	}
	res.finder, err = dev.Launch(gpu.LaunchSpec{
		Name:   "finder",
		Global: gws,
		Local:  wg,
		Phases: func() []gpu.Phase {
			lPat, lIdx := make([]byte, 2*pat.PatternLen), make([]int32, 2*pat.PatternLen)
			if p.ref {
				return refFinderPhases(fa, lPat, lIdx)
			}
			return finder.Phases(lPat, lIdx)
		},
	})
	if err != nil {
		return nil, err
	}
	if res.dropped[0] = farena.Overflow[0]; res.dropped[0] == 0 {
		if _, err := farena.Decode(); err != nil {
			t.Fatalf("finder arena decode: %v", err)
		}
	}
	loci := gatherGroups(farena, fa.Loci)
	flags := gatherGroups(farena, fa.Flags)

	cgws := max((len(loci)+wg-1)/wg*wg, wg)
	carena := arena(cgws/wg, 2*wg)
	ca := &ComparerArgs{
		Chr:       chr,
		ChunkView: view,
		Loci:      loci,
		Flags:     flags,
		LociCount: uint32(len(loci)),
		Guide:     gd,
		Threshold: uint16(p.maxMM),
		MMLoci:    make([]uint32, carena.Layout.Slots()),
		MMCount:   make([]uint16, carena.Layout.Slots()),
		Direction: make([]byte, carena.Layout.Slots()),
		Arena:     carena.Device(),
	}
	comparer, err := NewComparer(p.variant, ca)
	if err != nil {
		return nil, err
	}
	res.comparer, err = dev.Launch(gpu.LaunchSpec{
		Name:   ComparerKernelName(p.variant),
		Global: cgws,
		Local:  wg,
		Phases: func() []gpu.Phase {
			lComp, lIdx := make([]byte, 2*gd.PatternLen), make([]int32, 2*gd.PatternLen)
			if p.ref {
				return refComparerPhases(p.variant, ca, lComp, lIdx)
			}
			return comparer.Phases(lComp, lIdx)
		},
	})
	if err != nil {
		return nil, err
	}
	if res.dropped[1] = carena.Overflow[0]; res.dropped[1] == 0 {
		if _, err := carena.Decode(); err != nil {
			t.Fatalf("comparer arena decode: %v", err)
		}
	}
	mmLoci := gatherGroups(carena, ca.MMLoci)
	mmCount := gatherGroups(carena, ca.MMCount)
	dirs := gatherGroups(carena, ca.Direction)
	for i := range mmLoci {
		res.hits = append(res.hits, baseline.Hit{Pos: int(mmLoci[i]), Dir: dirs[i], Mismatches: int(mmCount[i])})
	}
	sort.Slice(res.hits, func(i, j int) bool {
		if res.hits[i].Pos != res.hits[j].Pos {
			return res.hits[i].Pos < res.hits[j].Pos
		}
		return res.hits[i].Dir < res.hits[j].Dir
	})
	return res, nil
}

// runPipeline executes the group kernels — the finder, then the given
// comparer variant — on one chunk with worst-case arenas, returning sorted
// hits and both launches' statistics.
func runPipeline(t *testing.T, dev *gpu.Device, seq []byte, pattern, guide string, maxMM int, v ComparerVariant, wg int) ([]baseline.Hit, *gpu.Stats, *gpu.Stats) {
	t.Helper()
	res, err := pipelineRun{seq: seq, pattern: pattern, guide: guide, maxMM: maxMM, variant: v, wg: wg}.run(t, dev)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if res.dropped != [2]uint32{} {
		t.Fatalf("worst-case arenas dropped %v entries", res.dropped)
	}
	return res.hits, res.finder, res.comparer
}

func hitsEqual(a, b []baseline.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
