package genome

import (
	"bytes"
	"testing"
)

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
