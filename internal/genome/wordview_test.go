package genome

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func randomSeq(rng *rand.Rand, n int) []byte {
	alphabet := []byte("ACGTNacgtRY")
	seq := make([]byte, n)
	for i := range seq {
		seq[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return seq
}

// newWordViewRef is the byte-at-a-time build that NewWordView's 8-byte
// groups replaced: one laneTable lookup per base. It is the oracle of
// TestWordViewMatchesRef and FuzzWordView.
func newWordViewRef(seq []byte) (*WordView, error) {
	dw := (len(seq) + 31) / 32
	v := &WordView{n: len(seq), codes: make([]uint64, dw+1), unknown: make([]uint64, dw+1)}
	for w := 0; w < dw; w++ {
		var code, unknown uint64
		word := seq[32*w : min(32*w+32, len(seq))]
		for i, b := range word {
			switch c := laneTable[b]; c {
			case laneInvalid:
				return nil, fmt.Errorf("genome: cannot pack invalid code %q at offset %d", b, 32*w+i)
			case laneUnknown:
				unknown |= 1 << (2 * i)
			default:
				code |= uint64(c) << (2 * i)
			}
		}
		if r := len(word); r < 32 {
			unknown |= LaneMask << (2 * r)
		}
		v.codes[w], v.unknown[w] = code, unknown
	}
	v.codes[dw], v.unknown[dw] = 0, LaneMask
	return v, nil
}

// diffRef builds seq with NewWordView, rebuilding into reuse, and with
// newWordViewRef, and describes how they differ, or returns "" when they
// agree: the same error text, or the same length and the same code and
// unknown words, padding word included. Code bits of an unknown lane must
// agree too (0): artifact files store the words as built.
func diffRef(seq []byte, reuse *WordView) string {
	v, err := NewWordView(seq, reuse)
	ref, refErr := newWordViewRef(seq)
	if err != nil || refErr != nil {
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			return fmt.Sprintf("NewWordView(%q) error %v, reference %v", seq, err, refErr)
		}
		return ""
	}
	if v.n != ref.n || !slices.Equal(v.codes, ref.codes) || !slices.Equal(v.unknown, ref.unknown) {
		return fmt.Sprintf("NewWordView(%q) = %d %x/%x, reference %d %x/%x", seq, v.n, v.codes, v.unknown, ref.n, ref.codes, ref.unknown)
	}
	return ""
}

// TestWordViewMatchesRef puts every byte value at every position of every
// length 0–72 (two full words and a partial third) of a concrete, a
// lower-case and an N-run background, so each 8-byte group shape is met:
// all concrete, all N, mixed, other IUPAC codes, an invalid byte, and the
// short last group.
func TestWordViewMatchesRef(t *testing.T) {
	const maxLen = 72
	backgrounds := []string{
		strings.Repeat("ACGTUGCA", maxLen/8),
		strings.Repeat("acgtugca", maxLen/8),
		strings.Repeat("N", 20) + strings.Repeat("n", 20) + strings.Repeat("AcGt", 3) + strings.Repeat("Nn", 10),
	}
	v := new(WordView)
	seq := make([]byte, maxLen)
	for _, bg := range backgrounds {
		for n := 0; n <= maxLen; n++ {
			if d := diffRef([]byte(bg[:n]), v); d != "" {
				t.Fatal(d)
			}
			for pos := 0; pos < n; pos++ {
				copy(seq, bg[:n])
				for b := 0; b < 256; b++ {
					seq[pos] = byte(b)
					if d := diffRef(seq[:n], v); d != "" {
						t.Fatal(d)
					}
				}
			}
		}
	}
}

// BenchmarkNewWordView is the word-view build alone, in MB/s of sequence,
// over every sequence of a 16 Mbase hg38-like assembly.
func BenchmarkNewWordView(b *testing.B) {
	asm, err := Generate(HG38Like(1 << 24))
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, s := range asm.Sequences {
		total += int64(len(s.Data))
	}
	b.SetBytes(total)
	var v *WordView
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range asm.Sequences {
			if v, err = NewWordView(s.Data, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// laneOf is the oracle for one lane, taken from the raw byte: a concrete
// base is known and its code is its ACGT index (U counts as T, case is
// ignored); every other IUPAC code is unknown.
func laneOf(b byte) (code byte, known bool) {
	if !IsConcrete(b) {
		return 0, false
	}
	return byte(min(strings.IndexByte("ACGTU", b&^0x20), 3)), true
}

// unpack decodes every lane of v back to 'A', 'C', 'G', 'T', or 'N' for
// an unknown lane.
func unpack(v *WordView) []byte {
	out := make([]byte, v.Len())
	for i := range out {
		code, unk := v.Window(i)
		out[i] = "ACGT"[code&3]
		if unk&1 != 0 {
			out[i] = 'N'
		}
	}
	return out
}

// checkView verifies every lane of every window of v against laneOf over
// seq: in-range lanes carry the byte's code and known bit, lanes at or past
// Len are marked unknown.
func checkView(t *testing.T, seq []byte, v *WordView) {
	t.Helper()
	n := len(seq)
	if v.Len() != n {
		t.Fatalf("view Len = %d, want %d", v.Len(), n)
	}
	if want := (n + 31) / 32; len(v.codes)-1 != want {
		t.Fatalf("view has %d data words, want %d", len(v.codes)-1, want)
	}
	for pos := 0; pos < n; pos++ {
		code, unk := v.Window(pos)
		for lane := 0; lane < 32; lane++ {
			i := pos + lane
			laneUnk := unk>>(2*lane)&1 != 0
			if i >= n {
				if !laneUnk {
					t.Fatalf("Window(%d) lane %d (pos %d >= len %d) not unknown", pos, lane, i, n)
				}
				continue
			}
			wantCode, wantKnown := laneOf(seq[i])
			if laneUnk == wantKnown {
				t.Fatalf("Window(%d) lane %d unknown=%v, want known=%v", pos, lane, laneUnk, wantKnown)
			}
			if wantKnown {
				if got := byte(code >> (2 * lane) & 3); got != wantCode {
					t.Fatalf("Window(%d) lane %d code=%d, want %d", pos, lane, got, wantCode)
				}
			}
		}
	}
}

// TestWordViewLengths is the word-boundary regression test: lengths that
// are not a multiple of 32 must still mark every tail lane unknown.
func TestWordViewLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 7, 8, 15, 31, 32, 33, 63, 64, 65, 83, 96, 127, 130} {
		seq := randomSeq(rng, n)
		v, err := NewWordView(seq, nil)
		if err != nil {
			t.Fatalf("n=%d: NewWordView: %v", n, err)
		}
		checkView(t, seq, v)
	}
}

// TestWordViewReuse rebuilds one view over sequences of different lengths;
// shrinking then growing must not leak stale words into the new view.
func TestWordViewReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var v *WordView
	for _, n := range []int{130, 31, 64, 1, 97} {
		seq := randomSeq(rng, n)
		var err error
		if v, err = NewWordView(seq, v); err != nil {
			t.Fatalf("n=%d: NewWordView: %v", n, err)
		}
		checkView(t, seq, v)
	}
}

// TestRepackRoundTrip rebuilds into a longer view whose words are stale
// and all ones, so a build that ORs into its buffers instead of
// overwriting them shows: the rebuilt view must reuse the buffers and equal
// a fresh build word for word, padding word included.
func TestRepackRoundTrip(t *testing.T) {
	for _, in := range []string{"ACGTACGTACGTA", "NNN", "", "acgtRYacgt", strings.Repeat("GATTACA", 30)} {
		fresh, err := NewWordView([]byte(in), nil)
		if err != nil {
			t.Fatal(err)
		}
		codes, unknown := make([]uint64, 8), make([]uint64, 8)
		for i := range codes {
			codes[i], unknown[i] = ^uint64(0), ^uint64(0)
		}
		stale := &WordView{n: 8 * 32, codes: codes, unknown: unknown}
		v, err := NewWordView([]byte(in), stale)
		if err != nil {
			t.Fatalf("NewWordView(%q): %v", in, err)
		}
		if v != stale || &v.codes[0] != &codes[0] || &v.unknown[0] != &unknown[0] {
			t.Errorf("NewWordView(%q) did not rebuild into the reused buffers", in)
		}
		if v.Len() != fresh.Len() || !slices.Equal(v.codes, fresh.codes) || !slices.Equal(v.unknown, fresh.unknown) {
			t.Errorf("NewWordView(%q) into a stale view = %x/%x, want %x/%x", in, v.codes, v.unknown, fresh.codes, fresh.unknown)
		}
	}
	if _, err := NewWordView([]byte("AC-GT"), new(WordView)); err == nil {
		t.Error("NewWordView(invalid) into a reused view = nil error, want failure")
	}
}

// TestPackPaddingUnknown: every lane past Len reads as unknown, so a read
// past the end decodes as 'N' instead of silently reporting the padding as
// a concrete 'A'.
func TestPackPaddingUnknown(t *testing.T) {
	v, err := NewWordView([]byte("ACGTA"), nil) // 5 bases; lanes 5..63 are padding
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 5; pos++ {
		_, unk := v.Window(pos)
		for lane := 5 - pos; lane < 32; lane++ {
			if unk>>(2*lane)&1 == 0 {
				t.Errorf("Window(%d) lane %d is known on padding, want unknown", pos, lane)
			}
		}
	}
}

func TestPackUnpackConcrete(t *testing.T) {
	in := []byte("ACGTACGTACGTA") // odd length exercises a partial final word
	v, err := NewWordView(in, nil)
	if err != nil {
		t.Fatalf("NewWordView: %v", err)
	}
	if v.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(in))
	}
	if got := unpack(v); !bytes.Equal(got, in) {
		t.Errorf("unpack = %q, want %q", got, in)
	}
}

func TestPackAmbiguityCodes(t *testing.T) {
	v, err := NewWordView([]byte("ANRGtu"), nil)
	if err != nil {
		t.Fatalf("NewWordView: %v", err)
	}
	want := []byte("ANNGTT") // ambiguity codes collapse to N; case folds; U is T
	if got := unpack(v); !bytes.Equal(got, want) {
		t.Errorf("unpack = %q, want %q", got, want)
	}
}

func TestPackInvalid(t *testing.T) {
	for in, want := range map[string]string{
		"AC-GT":                       `cannot pack invalid code '-' at offset 2`,
		strings.Repeat("A", 40) + "!": `cannot pack invalid code '!' at offset 40`,
	} {
		if _, err := NewWordView([]byte(in), nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewWordView(%q) = %v, want an error containing %q", in, err, want)
		}
	}
}

func TestPackEmpty(t *testing.T) {
	v, err := NewWordView(nil, nil)
	if err != nil {
		t.Fatalf("NewWordView(nil): %v", err)
	}
	if v.Len() != 0 || len(v.codes) != 1 || len(unpack(v)) != 0 {
		t.Error("empty view not empty")
	}
}

// TestPackRoundTripProperty: building any ACGTN string and decoding the
// view restores it exactly, for arbitrary lengths including partial-word
// tails.
func TestPackRoundTripProperty(t *testing.T) {
	alphabet := []byte("ACGTN")
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, int(n)%4096)
		for i := range in {
			in[i] = alphabet[rng.Intn(len(alphabet))]
		}
		v, err := NewWordView(in, nil)
		if err != nil {
			return false
		}
		return bytes.Equal(unpack(v), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCode pins the lane codes: A, C, G, T are 0..3 and known, N is
// unknown with code 0.
func TestCode(t *testing.T) {
	v, err := NewWordView([]byte("ACGTN"), nil)
	if err != nil {
		t.Fatal(err)
	}
	code, unk := v.Window(0)
	want := []struct {
		code  byte
		known bool
	}{{0, true}, {1, true}, {2, true}, {3, true}, {0, false}}
	for i, w := range want {
		c, known := byte(code>>(2*i)&3), unk>>(2*i)&1 == 0
		if c != w.code || known != w.known {
			t.Errorf("lane %d = (%d, %v), want (%d, %v)", i, c, known, w.code, w.known)
		}
	}
}
