package genome

import (
	"strings"
	"testing"
)

func TestComposeBasics(t *testing.T) {
	asm := &Assembly{Name: "t", Sequences: []*Sequence{
		{Name: "a", Data: []byte("ACGTacgtNNRY")},
		{Name: "b", Data: []byte("GGGG")},
	}}
	c := Compose(asm)
	if c.TotalBases != 16 || c.Sequences != 2 {
		t.Fatalf("totals: %+v", c)
	}
	if c.A != 2 || c.C != 2 || c.G != 6 || c.T != 2 {
		t.Errorf("base counts: A=%d C=%d G=%d T=%d", c.A, c.C, c.G, c.T)
	}
	if c.N != 2 || c.OtherIUPAC != 2 {
		t.Errorf("N=%d other=%d", c.N, c.OtherIUPAC)
	}
	if c.SoftMasked != 4 {
		t.Errorf("SoftMasked = %d", c.SoftMasked)
	}
	// GC = (2+6)/12 resolved.
	if gc := c.GC(); gc < 0.66 || gc > 0.67 {
		t.Errorf("GC = %v", gc)
	}
	if c.NFraction() != 2.0/16 {
		t.Errorf("NFraction = %v", c.NFraction())
	}
	if c.softMaskFraction() != 4.0/16 {
		t.Errorf("softMaskFraction = %v", c.softMaskFraction())
	}
	if !strings.Contains(c.String(), "2 sequences") {
		t.Errorf("String = %q", c.String())
	}
}

func TestComposeN50(t *testing.T) {
	mk := func(n int) *Sequence { return &Sequence{Name: "s", Data: make([]byte, n)} }
	asm := &Assembly{Sequences: []*Sequence{mk(10), mk(40), mk(20), mk(30)}}
	// Total 100; descending 40+30 = 70 >= 50 at length 30.
	if c := Compose(asm); c.N50 != 30 {
		t.Errorf("N50 = %d, want 30", c.N50)
	}
}

func TestComposeEmpty(t *testing.T) {
	c := Compose(&Assembly{})
	if c.GC() != 0 || c.NFraction() != 0 || c.softMaskFraction() != 0 || c.N50 != 0 {
		t.Errorf("empty composition: %+v", c)
	}
}

// TestComposeMatchesProfiles ties the generator and the analyzer together:
// generated assemblies must report the composition their profile requested.
func TestComposeMatchesProfiles(t *testing.T) {
	for _, p := range []Profile{HG19Like(300_000), HG38Like(300_000)} {
		asm, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		c := Compose(asm)
		if diff := c.GC() - p.GC; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s: GC %.3f vs profile %.3f", p.Name, c.GC(), p.GC)
		}
		if diff := c.NFraction() - p.NFraction; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s: N %.3f vs profile %.3f", p.Name, c.NFraction(), p.NFraction)
		}
		if c.OtherIUPAC != 0 {
			t.Errorf("%s: generator emitted ambiguity codes", p.Name)
		}
	}
}
