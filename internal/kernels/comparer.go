package kernels

import (
	"fmt"

	"casoffinder/internal/gpu"
)

// ComparerVariant selects between the baseline comparer of Listing 1 and
// the paper's cumulative optimizations (§IV.B). All variants compute
// identical results; they differ in the memory traffic the compiler would
// emit for them, which the simulator accounts through the Stats hooks, and
// in the register pressure internal/isa derives for them.
type ComparerVariant int

// Comparer variants, cumulative in the paper's order.
const (
	// Base is the kernel exactly as migrated (Listing 1).
	Base ComparerVariant = iota
	// Opt1 adds __restrict to every pointer argument, letting the compiler
	// remove reloads it previously kept for potential aliasing: the flag
	// test reads flag[i] once per branch and loci[i] is hoisted out of each
	// comparison loop.
	Opt1
	// Opt2 explicitly stages loci[i] and flag[i] in registers before the
	// comparison loops: one global read of each per work-item.
	Opt2
	// Opt3 fetches the pattern and index arrays from global to shared
	// local memory cooperatively — every work-item of the group
	// participates instead of only the first.
	Opt3
	// Opt4 additionally stages each pattern character read from shared
	// local memory in a register, halving LDS traffic but raising register
	// pressure enough to cost a wave of occupancy (Table X).
	Opt4
)

// Variants lists the comparer variants in cumulative order — the five rows
// of Table X.
func Variants() []ComparerVariant { return []ComparerVariant{Base, Opt1, Opt2, Opt3, Opt4} }

// ParseVariant resolves a -variant flag value: "auto" selects the occupancy
// autotuner, a variant name forces that kernel.
func ParseVariant(name string) (ComparerVariant, bool, error) {
	if name == "auto" {
		return 0, true, nil
	}
	for _, v := range Variants() {
		if v.String() == name {
			return v, false, nil
		}
	}
	return 0, false, fmt.Errorf("unknown comparer variant %q (want auto, base or opt1..opt4)", name)
}

func (v ComparerVariant) String() string {
	switch v {
	case Base:
		return "base"
	case Opt1:
		return "opt1"
	case Opt2:
		return "opt2"
	case Opt3:
		return "opt3"
	case Opt4:
		return "opt4"
	default:
		return fmt.Sprintf("ComparerVariant(%d)", int(v))
	}
}

// CooperativeFetch reports whether the variant stages patterns into local
// memory with all work-items (opt3 and later) rather than the group leader
// alone; the timing model charges leader-only staging as a serialised
// prefix on the group's critical path.
func (v ComparerVariant) CooperativeFetch() bool { return v >= Opt3 }

// comparerCosts encodes the compiler-visible differences between variants:
// how often the kernel re-reads flag[i] and loci[i] from global memory and
// whether the ladder re-reads l_comp[k] from local memory per term.
type comparerCosts struct {
	flagLoads    int  // global reads of flag[i] per work-item
	lociPerIter  bool // loci[i] re-read on every comparison iteration
	lociPerHalf  bool // loci[i] read once per strand loop (hoisted)
	ldsPerTerm   bool // l_comp[k] read once per evaluated ladder term
	coopPrefetch bool // all items stage the pattern arrays
}

func (v ComparerVariant) costs() comparerCosts {
	switch v {
	case Base:
		return comparerCosts{flagLoads: 4, lociPerIter: true, ldsPerTerm: true}
	case Opt1:
		return comparerCosts{flagLoads: 2, lociPerHalf: true, ldsPerTerm: true}
	case Opt2:
		return comparerCosts{flagLoads: 1, ldsPerTerm: true}
	case Opt3:
		return comparerCosts{flagLoads: 1, ldsPerTerm: true, coopPrefetch: true}
	default: // Opt4
		return comparerCosts{flagLoads: 1, coopPrefetch: true}
	}
}

// Comparer is one comparer variant bound to one launch's arguments
// (Listing 1). Phase 0 stages comp and comp_index into shared local memory
// (L1-L8: cooperatively for opt3+, by the group leader before — the same
// traffic either way); the phase boundary is the kernel's barrier; phase 1
// (L9-L42) walks the guide's index array on each flagged strand, counting
// mismatches with early exit past the threshold, and compacts passing
// entries through the output arena.
type Comparer struct {
	a      *ComparerArgs
	c      comparerCosts
	strand [2]strandPlan
	// stage is one group's staging traffic; item what every work-item
	// executes before the barrier; live what an item below LociCount pays
	// before it looks at its flag's strands; store one compacted entry.
	stage, item, live, store gpu.Stats
}

// NewComparer validates the arguments and builds the launch's cost plan.
func NewComparer(v ComparerVariant, a *ComparerArgs) (*Comparer, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	c := v.costs()
	k := &Comparer{a: a, c: c}
	var w walkCosts
	w.enter.Branch(true) // the strand's flag test
	if c.lociPerHalf {
		w.enter.LoadGlobalRedundant(4) // opt1: loci[i] hoisted out of the loop
	}
	w.early.Branch(true)
	w.step = func(terms int) (s gpu.Stats) {
		s.LoadLocal() // comp_index[j]
		if c.ldsPerTerm {
			s.LoadLocalN(terms)
		} else {
			s.LoadLocal() // opt4: one LDS read, then a register
		}
		if c.lociPerIter {
			s.LoadGlobalRedundant(4) // base: loci[i] reloaded per iteration
		}
		s.LoadGlobal(1) // chr[loci[i]+k]
		s.ALU(aluPerTerm*terms + 2)
		s.Branch(true)
		return s
	}
	var err error
	if k.strand, err = planStrands(a.Guide, &w); err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", ComparerKernelName(v), err)
	}
	k.item.ALU(2) // L1: the local index
	for i := 0; i < 2*a.Guide.PatternLen; i++ {
		k.stage.LoadGlobal(1)
		k.stage.LoadGlobal(4)
		k.stage.StoreLocalN(2)
	}
	k.live.LoadGlobal(1) // flag[i]
	for r := 1; r < c.flagLoads; r++ {
		k.live.LoadGlobalRedundant(1)
	}
	if !c.lociPerIter && !c.lociPerHalf {
		k.live.LoadGlobal(4) // opt2+: loci[i] registered once per item
	}
	if c.lociPerIter {
		k.store.LoadGlobalRedundant(4) // base: mm_loci[slot] = loci[i] reloads again
	}
	k.store.StoreGlobal(2)
	k.store.StoreGlobal(1)
	k.store.StoreGlobal(4)
	return k, nil
}

// Phases returns the kernel's two phases for one worker. lComp and
// lCompIndex are the worker's local staging arrays ("l_comp",
// "l_comp_index"), each of length 2*PatternLen.
func (k *Comparer) Phases(lComp []byte, lCompIndex []int32) []gpu.Phase {
	hist, terms := newHist(&k.strand), newTerms(&k.strand)
	return []gpu.Phase{
		func(g *gpu.Group) { stageGroup(g, k.a.Guide, lComp, lCompIndex, &k.stage, &k.item) },
		func(g *gpu.Group) { k.compareGroup(g, lComp, lCompIndex, hist, terms) },
	}
}

// flagStrands maps a finder flag to the strands the comparer walks, as a
// bit per strand; an unknown flag walks neither.
var flagStrands = [256]uint8{FlagBoth: 0b11, FlagForward: 0b01, FlagReverse: 0b10}

var strandDir = [2]byte{DirForward, DirReverse}

func (k *Comparer) compareGroup(g *gpu.Group, lComp []byte, lCompIndex []int32, hist [2][]int64, terms [2][]term) {
	a, threshold := k.a, int(k.a.Threshold)
	restage(&k.strand, terms, lComp, lCompIndex, a.Guide.PatternLen)
	base, n := g.Base(), inRange(g, int(a.LociCount))
	// Before opt2 loci[i] is re-read from global memory — per strand (opt1)
	// or per iteration and per store (base). The plan prices every such
	// read as a reload; the first one an item performs is not, and firsts
	// counts those items.
	reloads := k.c.lociPerIter || k.c.lociPerHalf
	stores, drops, firsts := 0, 0, 0
	for i := base; i < base+n; i++ {
		locus := int(a.Loci[i])
		read := false
		for s := range k.strand {
			if flagStrands[a.Flags[i]]&(1<<s) == 0 {
				continue
			}
			e, mm := walk(terms[s], a.Chr, locus, threshold)
			hist[s][e]++
			read = read || k.c.lociPerHalf || len(terms[s]) > 0
			if e != len(terms[s]) {
				continue
			}
			// L19-L23 / L36-L40: compact one passing entry through the
			// arena. An exhausted arena drops the entry — counted in
			// Arena.Overflow, recovered by the host's refit-and-relaunch.
			slot := a.Arena.Claim(g)
			if slot < 0 {
				drops++
				continue
			}
			a.MMCount[slot] = uint16(mm)
			a.Direction[slot] = strandDir[s]
			a.MMLoci[slot] = uint32(locus)
			stores++
			read = true
		}
		if read && reloads {
			firsts++
		}
	}
	st := g.Stats()
	for s := range k.strand {
		k.strand[s].fold(st, hist[s])
	}
	st.AddScaled(&k.live, int64(n))
	st.AddScaled(&k.store, int64(stores))
	diverged(st, g.Size()-n+drops) // items past LociCount, dropped entries
	st.RedundantLoadOps -= int64(firsts)
}

// ComparerLocalBytes returns the shared-local-memory bytes one work-group
// of the comparer uses for a guide pattern of length plen.
func ComparerLocalBytes(plen int) int { return 2*plen + 4*2*plen }
