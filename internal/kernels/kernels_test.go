package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"casoffinder/internal/baseline"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/gpu/device"
)

func TestNewPatternPair(t *testing.T) {
	p, err := NewPatternPair([]byte("NNAGGn"))
	if err != nil {
		t.Fatalf("NewPatternPair: %v", err)
	}
	if p.PatternLen != 6 {
		t.Fatalf("PatternLen = %d", p.PatternLen)
	}
	if string(p.Codes[:6]) != "NNAGGN" {
		t.Errorf("forward codes = %q", p.Codes[:6])
	}
	if string(p.Codes[6:]) != "NCCTNN" {
		t.Errorf("reverse codes = %q", p.Codes[6:])
	}
	// Forward non-N positions: 2, 3, 4 then -1.
	wantFwd := []int32{2, 3, 4, -1}
	for i, w := range wantFwd {
		if p.Index[i] != w {
			t.Errorf("fwd index[%d] = %d, want %d", i, p.Index[i], w)
		}
	}
	// Reverse non-N positions: 1, 2, 3 then -1.
	wantRev := []int32{1, 2, 3, -1}
	for i, w := range wantRev {
		if p.Index[6+i] != w {
			t.Errorf("rev index[%d] = %d, want %d", i, p.Index[6+i], w)
		}
	}
}

func TestNewPatternPairAllN(t *testing.T) {
	p, err := NewPatternPair([]byte("NNN"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Index[0] != -1 || p.Index[3] != -1 {
		t.Error("all-N pattern should have empty index arrays")
	}
}

func TestNewPatternPairErrors(t *testing.T) {
	if _, err := NewPatternPair(nil); err == nil {
		t.Error("empty pattern = nil error")
	}
	if _, err := NewPatternPair([]byte("ACX")); err == nil {
		t.Error("invalid code = nil error")
	}
}

func TestVariantNames(t *testing.T) {
	want := []string{"base", "opt1", "opt2", "opt3", "opt4"}
	for i, v := range Variants() {
		if v.String() != want[i] {
			t.Errorf("variant %d = %q, want %q", i, v, want[i])
		}
	}
	if ComparerKernelName(Base) != "comparer" {
		t.Errorf("ComparerKernelName(Base) = %q", ComparerKernelName(Base))
	}
	if ComparerKernelName(Opt3) != "comparer_opt3" {
		t.Errorf("ComparerKernelName(Opt3) = %q", ComparerKernelName(Opt3))
	}
	if Base.CooperativeFetch() || Opt2.CooperativeFetch() {
		t.Error("base/opt2 should not report cooperative fetch")
	}
	if !Opt3.CooperativeFetch() || !Opt4.CooperativeFetch() {
		t.Error("opt3/opt4 should report cooperative fetch")
	}
}

func TestParseVariant(t *testing.T) {
	v, auto, err := ParseVariant("opt2")
	if err != nil || auto || v.String() != "opt2" {
		t.Errorf("ParseVariant(opt2) = %v, %v, %v", v, auto, err)
	}
	if _, auto, err := ParseVariant("auto"); err != nil || !auto {
		t.Errorf("ParseVariant(auto) = auto %v, %v; want the tuner", auto, err)
	}
	if _, _, err := ParseVariant("fast"); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestPipelineMatchesBaseline(t *testing.T) {
	dev := gpu.New(device.MI60(), gpu.WithWorkers(4))
	seq := []byte("ACCGATTACAGGTTTGATTACAAGCCNNGATTACAGGACGTCCTGTAATCGG")
	const pattern, guide = "NNNNNNNGG", "GATTACANN"
	want, err := baseline.Search(genome.Upper(seq), []byte(pattern), []byte(guide), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test sequence should produce baseline hits")
	}
	got, _, _ := runPipeline(t, dev, seq, pattern, guide, 1, Base, 16)
	if !hitsEqual(got, want) {
		t.Errorf("pipeline hits = %+v, want %+v", got, want)
	}
}

// TestVariantsFunctionallyIdentical verifies the paper's premise that the
// optimizations do not change results: every comparer variant returns the
// same hits on a randomized genome.
func TestVariantsFunctionallyIdentical(t *testing.T) {
	dev := gpu.New(device.MI100(), gpu.WithWorkers(4))
	rng := rand.New(rand.NewSource(42))
	seq := make([]byte, 4096)
	alphabet := []byte("ACGTACGTACGTACGTN") // mostly concrete, some N
	for i := range seq {
		seq[i] = alphabet[rng.Intn(len(alphabet))]
	}
	const pattern, guide = "NNNNNNNNNNNNNNNNNNNNNGG", "GGCCGACCTGTCGCTGACGCNNN"
	// Plant approximate sites: the guide with 0-4 mutations plus an NGG PAM,
	// on both strands.
	site := []byte("GGCCGACCTGTCGCTGACGCTGG")
	for s := 0; s < 12; s++ {
		mutated := append([]byte(nil), site...)
		for m := 0; m < s%5; m++ {
			mutated[rng.Intn(20)] = "ACGT"[rng.Intn(4)]
		}
		if s%3 == 0 {
			genome.ReverseComplement(mutated)
		}
		copy(seq[64+s*320:], mutated)
	}
	ref, _, _ := runPipeline(t, dev, seq, pattern, guide, 4, Base, 64)
	if len(ref) == 0 {
		t.Fatal("expected hits from the randomized genome")
	}
	for _, v := range Variants()[1:] {
		got, _, _ := runPipeline(t, dev, seq, pattern, guide, 4, v, 64)
		if !hitsEqual(got, ref) {
			t.Errorf("variant %s: %d hits != base %d hits", v, len(got), len(ref))
		}
	}
}

// TestPipelinePropertyVsBaseline is the main correctness property: for
// random genomes, guides and thresholds, the two-kernel pipeline agrees
// with the naive reference, for every variant.
func TestPipelinePropertyVsBaseline(t *testing.T) {
	dev := gpu.New(device.RadeonVII(), gpu.WithWorkers(4))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(900)
		seq := make([]byte, n)
		alphabet := []byte("ACGTacgtN")
		for i := range seq {
			seq[i] = alphabet[rng.Intn(len(alphabet))]
		}
		glen := 4 + rng.Intn(8)
		pam := []byte{"ACGTRYN"[rng.Intn(7)], 'G', 'G'}[:1+rng.Intn(2)]
		pattern := make([]byte, glen+len(pam))
		guide := make([]byte, glen+len(pam))
		for i := 0; i < glen; i++ {
			pattern[i] = 'N'
			guide[i] = "ACGT"[rng.Intn(4)]
		}
		for i, c := range pam {
			pattern[glen+i] = c
			guide[glen+i] = 'N'
		}
		maxMM := rng.Intn(4)
		want, err := baseline.Search(genome.Upper(seq), pattern, guide, maxMM)
		if err != nil {
			return false
		}
		v := Variants()[rng.Intn(len(Variants()))]
		got, _, _ := runPipeline(t, dev, seq, string(pattern), string(guide), maxMM, v, 32)
		return hitsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestVariantTrafficOrdering pins the cost model: each optimization must
// reduce the traffic it targets, matching the paper's description of
// opt1 (fewer aliasing reloads), opt2 (registered global reads), and
// opt4 (registered LDS reads).
func TestVariantTrafficOrdering(t *testing.T) {
	dev := gpu.New(device.MI60(), gpu.WithWorkers(4))
	rng := rand.New(rand.NewSource(7))
	seq := make([]byte, 8192)
	for i := range seq {
		seq[i] = "ACGT"[rng.Intn(4)]
	}
	const pattern, guide = "NNNNNNNNNNNNNNNNNNNNNGG", "GGCCGACCTGTCGCTGACGCNNN"
	stats := make(map[ComparerVariant]*gpu.Stats)
	for _, v := range Variants() {
		_, _, cs := runPipeline(t, dev, seq, pattern, guide, 4, v, 64)
		stats[v] = cs
	}
	// Global load ops strictly decrease base -> opt1 -> opt2; opt2 == opt3
	// (cooperative fetch moves the same loads, it does not remove them).
	if !(stats[Base].GlobalLoadOps > stats[Opt1].GlobalLoadOps) {
		t.Errorf("opt1 should cut global loads: base %d, opt1 %d",
			stats[Base].GlobalLoadOps, stats[Opt1].GlobalLoadOps)
	}
	if !(stats[Opt1].GlobalLoadOps > stats[Opt2].GlobalLoadOps) {
		t.Errorf("opt2 should cut global loads: opt1 %d, opt2 %d",
			stats[Opt1].GlobalLoadOps, stats[Opt2].GlobalLoadOps)
	}
	if stats[Opt2].GlobalLoadOps != stats[Opt3].GlobalLoadOps {
		t.Errorf("opt3 should not change global load count: %d vs %d",
			stats[Opt2].GlobalLoadOps, stats[Opt3].GlobalLoadOps)
	}
	// LDS loads drop sharply at opt4.
	if !(stats[Opt4].LocalLoadOps < stats[Opt3].LocalLoadOps*2/3) {
		t.Errorf("opt4 should cut LDS loads: opt3 %d, opt4 %d",
			stats[Opt3].LocalLoadOps, stats[Opt4].LocalLoadOps)
	}
	// All variants do the same ALU work and atomics.
	for _, v := range Variants()[1:] {
		if stats[v].ALUOps != stats[Base].ALUOps {
			t.Errorf("variant %s changed ALU ops: %d vs %d", v, stats[v].ALUOps, stats[Base].ALUOps)
		}
		if stats[v].AtomicOps != stats[Base].AtomicOps {
			t.Errorf("variant %s changed atomics: %d vs %d", v, stats[v].AtomicOps, stats[Base].AtomicOps)
		}
	}
}

// newArena returns a fresh claim state at l and the arena view bound over
// it.
func newArena(l alloc.Layout) ([]uint32, *alloc.Device) {
	state := l.NewState()
	d, err := alloc.Bind(l.PageSlots, l.Pages, state)
	if err != nil {
		panic(err) // a NewState state always binds
	}
	return state, d
}

func TestFinderFlagsBothStrands(t *testing.T) {
	dev := gpu.New(device.MI60(), gpu.WithWorkers(2))
	// CCNGG window: pattern NGG forward matches at pos 2 (NGG); reverse
	// complement of NGG is CCN, matching at pos 0.
	seq := []byte("CCAGG")
	pat, err := NewPatternPair([]byte("NGG"))
	if err != nil {
		t.Fatal(err)
	}
	layout := alloc.WorstCase(1, 4)
	state, arena := newArena(layout)
	fa := &FinderArgs{
		Chr:       seq,
		ChunkView: viewOf(seq),
		Pattern:   pat,
		Sites:     3,
		Loci:      make([]uint32, layout.Slots()),
		Flags:     make([]byte, layout.Slots()),
		Arena:     arena,
	}
	finder, err := NewFinder(fa)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dev.Launch(gpu.LaunchSpec{
		Name: "finder", Global: 4, Local: 4,
		Phases: func() []gpu.Phase { return finder.Phases(make([]byte, 6), make([]int32, 6)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	geo, err := alloc.Decode(layout.PageSlots, layout.Pages, state)
	if err != nil {
		t.Fatal(err)
	}
	loci := alloc.Gather(geo, fa.Loci, []uint32(nil))
	flags := alloc.Gather(geo, fa.Flags, []byte(nil))
	got := map[uint32]byte{}
	for i, l := range loci {
		got[l] = flags[i]
	}
	if got[0] != FlagReverse {
		t.Errorf("pos 0 flag = %v, want reverse (CCA matches CCN)", got[0])
	}
	if got[2] != FlagForward {
		t.Errorf("pos 2 flag = %v, want forward (AGG matches NGG)", got[2])
	}
}

func TestArgsValidate(t *testing.T) {
	pat, _ := NewPatternPair([]byte("NGG"))
	_, fArena := newArena(alloc.WorstCase(1, 6))
	okF := FinderArgs{Chr: []byte("ACGTACGT"), ChunkView: viewOf([]byte("ACGTACGT")), Pattern: pat, Sites: 6,
		Loci: make([]uint32, 6), Flags: make([]byte, 6), Arena: fArena}
	if err := okF.validate(); err != nil {
		t.Errorf("valid finder args rejected: %v", err)
	}
	bad := okF
	bad.Sites = 7 // 7+3-1 > 8
	if err := bad.validate(); err == nil {
		t.Error("oversized site count accepted")
	}
	bad = okF
	bad.Loci = nil
	if err := bad.validate(); err == nil {
		t.Error("short loci accepted")
	}
	bad = okF
	bad.Arena = nil
	if err := bad.validate(); err == nil {
		t.Error("nil arena accepted")
	}
	bad = okF
	badArena := *fArena
	badArena.PageOf = badArena.PageOf[:0]
	bad.Arena = &badArena
	if err := bad.validate(); err == nil {
		t.Error("mismatched arena group tables accepted")
	}
	bad = okF
	bad.Pattern = nil
	if err := bad.validate(); err == nil {
		t.Error("nil pattern accepted")
	}
	bad = okF
	bad.View = nil
	if err := bad.validate(); err == nil {
		t.Error("nil chunk view accepted")
	}
	bad = okF
	bad.Base = 1 // the 8-base view ends a base short of the chunk
	if err := bad.validate(); err == nil {
		t.Error("view short of the chunk accepted")
	}

	_, cArena := newArena(alloc.WorstCase(1, 4))
	okC := ComparerArgs{Chr: []byte("ACGT"), ChunkView: viewOf([]byte("xACGT")), Loci: make([]uint32, 4), Flags: make([]byte, 4),
		LociCount: 2, Guide: pat, MMLoci: make([]uint32, 4), MMCount: make([]uint16, 4),
		Direction: make([]byte, 4), Arena: cArena}
	if err := okC.validate(); err != nil {
		t.Errorf("valid comparer args rejected: %v", err)
	}
	badC := okC
	badC.LociCount = 5
	if err := badC.validate(); err == nil {
		t.Error("loci overflow accepted")
	}
	badC = okC
	badC.MMLoci = make([]uint32, 3)
	if err := badC.validate(); err == nil {
		t.Error("short output accepted")
	}
	badC = okC
	badC.Arena = nil
	if err := badC.validate(); err == nil {
		t.Error("nil arena accepted")
	}
	badC = okC
	badC.Guide = nil
	if err := badC.validate(); err == nil {
		t.Error("nil guide accepted")
	}
	badC = okC
	badC.Base = 1
	if err := badC.validate(); err != nil {
		t.Errorf("view at base 1 rejected: %v", err)
	}
	badC.Base = 2
	if err := badC.validate(); err == nil {
		t.Error("view short of the chunk accepted")
	}

	okG := func() *GatherArgs {
		_, arena := newArena(alloc.SizedPages(2, 2, 4))
		return &GatherArgs{Arena: arena,
			Loci: make([]uint32, 8), Flags: make([]byte, 8), N: 3, OutLoci: make([]uint32, 3), OutFlags: make([]byte, 3)}
	}
	if err := okG().validate(); err != nil {
		t.Errorf("valid gather args rejected: %v", err)
	}
	for name, mutate := range map[string]func(a *GatherArgs){
		"nil arena":      func(a *GatherArgs) { a.Arena = nil },
		"no groups":      func(a *GatherArgs) { a.Arena.Count, a.Arena.PageOf = nil, nil },
		"uneven tables":  func(a *GatherArgs) { a.Arena.PageOf = a.Arena.PageOf[:1] },
		"empty pages":    func(a *GatherArgs) { a.Arena.PageSlots = 0 },
		"no pages":       func(a *GatherArgs) { a.Arena.Pages = 0 },
		"short input":    func(a *GatherArgs) { a.Flags = a.Flags[:7] },
		"short output":   func(a *GatherArgs) { a.OutLoci = a.OutLoci[:2] },
		"negative count": func(a *GatherArgs) { a.N = -1 },
	} {
		badG := okG()
		mutate(badG)
		if err := badG.validate(); err == nil {
			t.Errorf("gather with %s accepted", name)
		}
	}
}

func TestLadderPos(t *testing.T) {
	if ladderPos['R'] != 1 {
		t.Errorf("R at ladder position %d, want 1", ladderPos['R'])
	}
	if ladderPos['T'] != len(ladderOrder) {
		t.Errorf("T at ladder position %d, want %d", ladderPos['T'], len(ladderOrder))
	}
	if ladderPos['r'] != ladderPos['R'] {
		t.Error("ladder position not case-insensitive")
	}
	if ladderPos['N'] != len(ladderOrder) {
		t.Error("codes outside the ladder should cost the full ladder")
	}
}

func TestLocalBytesHelpers(t *testing.T) {
	if FinderLocalBytes(23) != 2*23+4*2*23 {
		t.Errorf("FinderLocalBytes = %d", FinderLocalBytes(23))
	}
	if ComparerLocalBytes(23) != 2*23+4*2*23 {
		t.Errorf("ComparerLocalBytes = %d", ComparerLocalBytes(23))
	}
}
