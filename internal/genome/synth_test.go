package genome

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceGenerate is Generate as it was written against *rand.Rand: the
// oracle the concrete stream and integer thresholds are pinned to.
func referenceGenerate(p Profile) [][]byte {
	var totalW float64
	for _, c := range p.Chromosomes {
		totalW += c.Weight
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var seqs [][]byte
	remaining := p.TotalBases
	for i, c := range p.Chromosomes {
		var n int
		if i == len(p.Chromosomes)-1 {
			n = remaining
		} else {
			n = int(float64(p.TotalBases) * c.Weight / totalW)
			if n > remaining {
				n = remaining
			}
		}
		remaining -= n
		if n <= 0 {
			continue
		}
		seqs = append(seqs, referenceSeq(rng, n, p))
	}
	return seqs
}

func referenceSeq(rng *rand.Rand, n int, p Profile) []byte {
	out := make([]byte, 0, n)
	meanGap := p.MeanGapLen
	if meanGap <= 0 {
		meanGap = 1000
	}
	meanRun := n
	if p.NFraction > 0 {
		meanRun = int(float64(meanGap)*(1-p.NFraction)/p.NFraction + 0.5)
		if meanRun < 1 {
			meanRun = 1
		}
	}
	if limit := n / 25; limit > 0 && meanRun > limit {
		scale := float64(limit) / float64(meanRun)
		meanRun = limit
		if meanGap = int(float64(meanGap) * scale); meanGap < 1 {
			meanGap = 1
		}
	}
	inGap := false
	for len(out) < n {
		var runLen int
		if inGap {
			runLen = 1 + int(rng.ExpFloat64()*float64(meanGap))
		} else {
			runLen = 1 + int(rng.ExpFloat64()*float64(meanRun))
		}
		if runLen > n-len(out) {
			runLen = n - len(out)
		}
		if inGap {
			for i := 0; i < runLen; i++ {
				out = append(out, 'N')
			}
		} else {
			soft := rng.Float64() < p.SoftMask
			for i := 0; i < runLen; i++ {
				b := referenceBase(rng, p.GC)
				if soft {
					b |= 0x20
				}
				out = append(out, b)
				if rng.Float64() < 0.001 {
					soft = !soft
				}
			}
		}
		inGap = !inGap
	}
	return out
}

func referenceBase(rng *rand.Rand, gc float64) byte {
	if rng.Float64() < gc {
		if rng.Intn(2) == 0 {
			return 'G'
		}
		return 'C'
	}
	if rng.Intn(2) == 0 {
		return 'A'
	}
	return 'T'
}

// checkAgainstReference fails t unless Generate(p) is the oracle's bytes.
func checkAgainstReference(t *testing.T, p Profile) {
	t.Helper()
	asm, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", p, err)
	}
	want := referenceGenerate(p)
	if len(asm.Sequences) != len(want) {
		t.Fatalf("%d sequences, reference %d", len(asm.Sequences), len(want))
	}
	for i, s := range asm.Sequences {
		if !bytes.Equal(s.Data, want[i]) {
			j := 0
			for j < len(s.Data) && j < len(want[i]) && s.Data[j] == want[i][j] {
				j++
			}
			t.Fatalf("%s: sequence %s (%d bases, reference %d) first differs at base %d",
				p.Name, s.Name, len(s.Data), len(want[i]), j)
		}
	}
}

var streamSeeds = []int64{1, 2, 7, 19, 38, -5, 1 << 40}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range streamSeeds {
		src := rand.NewSource(seed).(rand.Source64)
		s := newStream(seed)
		for i := 0; i < 5_000_000; i++ {
			if got, want := s.Uint64(), src.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
	// rand.New over a stream is the same generator as over the source.
	a, b := rand.New(newStream(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		if x, y := a.ExpFloat64(), b.ExpFloat64(); x != y {
			t.Fatalf("ExpFloat64 %d = %v, math/rand %v", i, x, y)
		}
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	for _, prof := range []func(int) Profile{HG19Like, HG38Like} {
		for _, seed := range streamSeeds {
			for _, n := range []int{1, 100, 10_000, 123_457, 1 << 20} {
				p := prof(n)
				p.Seed = seed
				checkAgainstReference(t, p)
			}
		}
	}
	for _, edit := range []func(*Profile){
		func(p *Profile) { p.GC = 0 },
		func(p *Profile) { p.GC = 1 },
		func(p *Profile) { p.SoftMask = 0 },
		func(p *Profile) { p.SoftMask = 1 },
		func(p *Profile) { p.NFraction = 0 },
		func(p *Profile) { p.MeanGapLen = 0 },
	} {
		p := HG38Like(200_000)
		edit(&p)
		t.Run(fmt.Sprintf("GC=%v,SoftMask=%v,NFraction=%v,MeanGapLen=%v", p.GC, p.SoftMask, p.NFraction, p.MeanGapLen), func(t *testing.T) {
			checkAgainstReference(t, p)
		})
	}
}

// TestBelow: for every Int63 draw x, Float64's float64(x)/(1<<63) < p
// exactly when x < below(p), and when lessBit(x, below(p)) is 1, at random
// x and at every x within 2¹⁰ of the threshold (float64 spacing near 2⁶³
// is 2¹⁰).
func TestBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := []float64{0, 1, 0.001, 0.409, 0.412, 0.45, 0.47, 0.5, 0x1p-60, 1 - 0x1p-53, math.Nextafter(1, 0)}
	for i := 0; i < 100; i++ {
		ps = append(ps, rng.Float64())
	}
	check := func(p float64, x int64) {
		want := float64(x)/(1<<63) < p
		if got := x < below(p); got != want {
			t.Fatalf("p=%v x=%d: x < below(p) = %v, float compare %v", p, x, got, want)
		}
		if got := lessBit(x, below(p)) == 1; got != want {
			t.Fatalf("p=%v x=%d: lessBit(x, below(p)) = %v, float compare %v", p, x, got, want)
		}
	}
	for _, p := range ps {
		b := below(p)
		for x := max(b-1<<10, 0); x <= b+min(1<<10, math.MaxInt64-b); x++ {
			check(p, x)
			if x == math.MaxInt64 {
				break
			}
		}
		for i := 0; i < 1000; i++ {
			check(p, rng.Int63())
		}
	}
	if got := below(math.NaN()); got != math.MaxInt64 {
		t.Errorf("below(NaN) = %d, want 2⁶³−1", got)
	}
	if got, want := oneBelow, int64(1<<63-512); got != want {
		t.Errorf("least Int63 that Float64 rounds to 1 = %d, want %d", got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := HG19Like(50_000)
	a1, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a2, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a1.Sequences) != len(a2.Sequences) {
		t.Fatalf("non-deterministic sequence count: %d vs %d", len(a1.Sequences), len(a2.Sequences))
	}
	for i := range a1.Sequences {
		if !bytes.Equal(a1.Sequences[i].Data, a2.Sequences[i].Data) {
			t.Fatalf("sequence %d differs between identical generations", i)
		}
	}
}

func TestGenerateSize(t *testing.T) {
	for _, total := range []int{1, 100, 10_000, 123_457} {
		asm, err := Generate(HG38Like(total))
		if err != nil {
			t.Fatalf("Generate(%d): %v", total, err)
		}
		if got := Compose(asm).TotalBases; got != int64(total) {
			t.Errorf("TotalBases = %d, want %d", got, total)
		}
	}
}

func TestGenerateValidCodes(t *testing.T) {
	asm, err := Generate(HG19Like(30_000))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, s := range asm.Sequences {
		if err := Validate(s.Data); err != nil {
			t.Errorf("sequence %s: %v", s.Name, err)
		}
	}
}

func TestGenerateProfileDifferences(t *testing.T) {
	const n = 400_000
	count := func(p Profile) (nFrac float64, gcFrac float64) {
		asm, err := Generate(p)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		var ns, gcs, resolved int
		for _, s := range asm.Sequences {
			for _, b := range s.Data {
				switch b &^ 0x20 {
				case 'N':
					ns++
				case 'G', 'C':
					gcs++
					resolved++
				default:
					resolved++
				}
			}
		}
		return float64(ns) / n, float64(gcs) / float64(resolved)
	}
	n19, gc19 := count(HG19Like(n))
	n38, gc38 := count(HG38Like(n))
	if n19 <= n38 {
		t.Errorf("hg19-like should carry more N gaps: %.4f vs %.4f", n19, n38)
	}
	for _, tc := range []struct {
		name     string
		got, cfg float64
	}{
		{"hg19 N", n19, HG19Like(n).NFraction},
		{"hg38 N", n38, HG38Like(n).NFraction},
		{"hg19 GC", gc19, HG19Like(n).GC},
		{"hg38 GC", gc38, HG38Like(n).GC},
	} {
		if diff := tc.got - tc.cfg; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s fraction %.4f too far from configured %.4f", tc.name, tc.got, tc.cfg)
		}
	}
}

func TestGenerateChromosomeStructure(t *testing.T) {
	asm, err := Generate(HG19Like(240_000))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(asm.Sequences) != len(humanChromWeights) {
		t.Fatalf("got %d chromosomes, want %d", len(asm.Sequences), len(humanChromWeights))
	}
	// chr1 must be the largest, chr21 among the smallest.
	chr1 := asm.Sequence("chr1").Len()
	chr21 := asm.Sequence("chr21").Len()
	if chr1 <= chr21 {
		t.Errorf("chr1 (%d) should be larger than chr21 (%d)", chr1, chr21)
	}
}

func TestGenerateErrors(t *testing.T) {
	tests := []struct {
		name string
		p    Profile
	}{
		{"zero total", Profile{Name: "x", Chromosomes: humanChromWeights}},
		{"no chromosomes", Profile{Name: "x", TotalBases: 10}},
		{"bad GC", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, GC: 1.5}},
		{"bad N", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, NFraction: 1.0}},
		{"negative GC", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, GC: -0.1}},
		{"NaN GC", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, GC: math.NaN()}},
		{"negative N", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, NFraction: -0.1}},
		{"NaN N", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, NFraction: math.NaN()}},
		{"bad SoftMask", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, SoftMask: 1.5}},
		{"negative SoftMask", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, SoftMask: -0.1}},
		{"NaN SoftMask", Profile{Name: "x", TotalBases: 10, Chromosomes: humanChromWeights, SoftMask: math.NaN()}},
		{"bad weight", Profile{Name: "x", TotalBases: 10, Chromosomes: []ChromSpec{{"c", 0}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.p); err == nil {
				t.Error("Generate = nil error, want failure")
			}
		})
	}
}

func TestProfileFullScale(t *testing.T) {
	// The projection targets must preserve hg38 > hg19 and both ~3 Gbp.
	h19, h38 := HG19Like(1), HG38Like(1)
	if h38.FullScaleBases <= h19.FullScaleBases {
		t.Error("hg38 full-scale size should exceed hg19")
	}
	if h19.FullScaleBases < 3_000_000_000 || h38.FullScaleBases > 3_400_000_000 {
		t.Error("full-scale sizes out of plausible human-genome range")
	}
}

// FuzzGenerate pins Generate to the oracle over arbitrary profiles of up
// to 64 Ki bases; a profile Generate rejects must hold an out-of-range
// probability.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(19), uint16(50_000), 0.409, 0.075, 2500, 0.45)
	f.Add(int64(38), uint16(1), 0.412, 0.049, 1200, 0.47)
	f.Add(int64(-5), uint16(65535), 1.0, 0.0, 0, 1.0)
	f.Add(int64(1<<40), uint16(4096), 0.0, 0.9, 1, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, total uint16, gc, nFrac float64, meanGap int, softMask float64) {
		p := HG38Like(int(total))
		p.Seed, p.GC, p.NFraction, p.SoftMask = seed, gc, nFrac, softMask
		p.MeanGapLen = meanGap % (1 << 20)
		if _, err := Generate(p); err != nil {
			if total > 0 && probability(gc) && probability(softMask) && probability(nFrac) && nFrac < 1 {
				t.Fatalf("valid profile rejected: %v", err)
			}
			return
		}
		checkAgainstReference(t, p)
	})
}

// BenchmarkGenerate is the generator alone, in MB/s of sequence.
func BenchmarkGenerate(b *testing.B) {
	for _, p := range []Profile{HG19Like(1 << 20), HG38Like(1 << 20), HG38Like(16_000_000)} {
		b.Run(fmt.Sprintf("%s/%d", p.Name, p.TotalBases), func(b *testing.B) {
			b.SetBytes(int64(p.TotalBases))
			for i := 0; i < b.N; i++ {
				if _, err := Generate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
