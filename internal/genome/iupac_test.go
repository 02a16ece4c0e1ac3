package genome

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskOf(t *testing.T) {
	tests := []struct {
		code byte
		want Mask
	}{
		{'A', MaskA},
		{'C', MaskC},
		{'G', MaskG},
		{'T', MaskT},
		{'U', MaskT},
		{'a', MaskA},
		{'t', MaskT},
		{'R', MaskA | MaskG},
		{'Y', MaskC | MaskT},
		{'S', MaskC | MaskG},
		{'W', MaskA | MaskT},
		{'K', MaskG | MaskT},
		{'M', MaskA | MaskC},
		{'B', MaskC | MaskG | MaskT},
		{'D', MaskA | MaskG | MaskT},
		{'H', MaskA | MaskC | MaskT},
		{'V', MaskA | MaskC | MaskG},
		{'N', MaskAny},
		{'n', MaskAny},
		{'X', MaskNone},
		{'>', MaskNone},
		{0, MaskNone},
		{' ', MaskNone},
	}
	for _, tt := range tests {
		if got := MaskOf(tt.code); got != tt.want {
			t.Errorf("MaskOf(%q) = %04b, want %04b", tt.code, got, tt.want)
		}
	}
}

func TestIsConcrete(t *testing.T) {
	for _, b := range []byte("ACGTUacgtu") {
		if !IsConcrete(b) {
			t.Errorf("IsConcrete(%q) = false, want true", b)
		}
	}
	for _, b := range []byte("RYSWKMBDHVNX. ") {
		if IsConcrete(b) {
			t.Errorf("IsConcrete(%q) = true, want false", b)
		}
	}
}

// TestMatchesTruthTable pins the degenerate-code comparison ladder of the
// paper's Listing 1: pattern R matches A/G (so C and T are mismatches),
// Y matches C/T, and so on.
func TestMatchesTruthTable(t *testing.T) {
	matchSets := map[byte]string{
		'A': "A", 'C': "C", 'G': "G", 'T': "T",
		'R': "AG", 'Y': "CT", 'S': "CG", 'W': "AT",
		'K': "GT", 'M': "AC",
		'B': "CGT", 'D': "AGT", 'H': "ACT", 'V': "ACG",
		'N': "ACGT",
	}
	concrete := []byte("ACGT")
	for pat, set := range matchSets {
		for _, base := range concrete {
			// Listing 1 counts a mismatch when the base is outside the
			// pattern code's set: exactly where Matches is false.
			mismatch := bytes.IndexByte([]byte(set), base) < 0
			if got := Matches(pat, base); got == mismatch {
				t.Errorf("Matches(%q, %q) = %v, want %v (mismatch %v)", pat, base, got, !mismatch, mismatch)
			}
		}
	}
}

func TestMatchesAmbiguousGenomeBase(t *testing.T) {
	// An unresolved genome base matches only a pattern N.
	for _, base := range []byte("NRYSWKMBDHV") {
		if !Matches('N', base) {
			t.Errorf("Matches('N', %q) = false, want true", base)
		}
		for _, pat := range []byte("ACGTRYSWKMBDHV") {
			if Matches(pat, base) {
				t.Errorf("Matches(%q, %q) = true, want false for ambiguous genome base", pat, base)
			}
		}
	}
}

func TestMatchesInvalidBytes(t *testing.T) {
	for _, pair := range [][2]byte{{'A', 'X'}, {'X', 'A'}, {'X', 'X'}, {0, 'G'}, {'N', '.'}} {
		if Matches(pair[0], pair[1]) {
			t.Errorf("Matches(%q, %q) = true, want false", pair[0], pair[1])
		}
	}
}

func TestComplementPairs(t *testing.T) {
	tests := []struct{ in, want byte }{
		{'A', 'T'}, {'T', 'A'}, {'C', 'G'}, {'G', 'C'},
		{'R', 'Y'}, {'Y', 'R'}, {'S', 'S'}, {'W', 'W'},
		{'K', 'M'}, {'M', 'K'}, {'B', 'V'}, {'V', 'B'},
		{'D', 'H'}, {'H', 'D'}, {'N', 'N'},
		{'a', 't'}, {'g', 'c'}, {'n', 'n'},
		{'>', '>'}, {' ', ' '},
	}
	for _, tt := range tests {
		if got := complementTable[tt.in]; got != tt.want {
			t.Errorf("complement of %q = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestComplementPreservesMaskSemantics checks that the complement of a code
// denotes exactly the complements of the bases the code denotes.
func TestComplementPreservesMaskSemantics(t *testing.T) {
	compBase := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A'}
	for _, pat := range []byte("ACGTRYSWKMBDHVN") {
		for base, cbase := range compBase {
			if Matches(pat, base) != Matches(complementTable[pat], cbase) {
				t.Errorf("Matches(%q,%q) != Matches(comp %q, comp %q)", pat, base, complementTable[pat], cbase)
			}
		}
	}
}

func TestReverseComplement(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"AC", "GT"},
		{"GATTACA", "TGTAATC"},
		{"NGG", "CCN"},
		{"acgt", "acgt"},
		{"AAAcccGGG", "CCCgggTTT"},
	}
	for _, tt := range tests {
		got := ReverseComplemented([]byte(tt.in))
		if string(got) != tt.want {
			t.Errorf("ReverseComplemented(%q) = %q, want %q", tt.in, got, tt.want)
		}
		// In-place variant must agree.
		buf := []byte(tt.in)
		ReverseComplement(buf)
		if string(buf) != tt.want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", tt.in, buf, tt.want)
		}
	}
}

// TestReverseComplementInvolution is a property test: applying reverse
// complement twice restores any IUPAC sequence.
func TestReverseComplementInvolution(t *testing.T) {
	alphabet := []byte("ACGTRYSWKMBDHVNacgtn")
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := make([]byte, int(n))
		for i := range seq {
			seq[i] = alphabet[rng.Intn(len(alphabet))]
		}
		twice := ReverseComplemented(ReverseComplemented(seq))
		return bytes.Equal(seq, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]byte("ACGTNryswkmbdhv")); err != nil {
		t.Errorf("Validate(valid) = %v, want nil", err)
	}
	if err := Validate([]byte("ACG!T")); err == nil {
		t.Error("Validate(invalid) = nil, want error")
	}
}

func TestUpper(t *testing.T) {
	got := Upper([]byte("acgtNnACGT"))
	if string(got) != "ACGTNNACGT" {
		t.Errorf("Upper = %q", got)
	}
	// Input must be untouched.
	in := []byte("acgt")
	_ = Upper(in)
	if string(in) != "acgt" {
		t.Error("Upper mutated its input")
	}
}
