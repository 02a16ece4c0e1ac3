package genome

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzReadFASTA checks the parser never panics, that it agrees with the
// reference line loop record for record and error for error, and that
// everything it accepts round-trips through the writer.
func FuzzReadFASTA(f *testing.F) {
	f.Add(">chr1\nACGT\n")
	f.Add(">a desc\nACGT\nNNNN\n>b\nacgt\n")
	f.Add(";comment\n>x\nRYSWKMBDHVN\n")
	f.Add(">\n")
	f.Add("ACGT\n")
	f.Add(">x\r\nAC\r\n")
	f.Add(">x\r\r\nAC\r\r\nGT\r\n")
	f.Add(">x\nACGT\nAC")
	f.Add("\n;c\n>x\n\nAC\n;mid\n\nGT\n\n")
	f.Add(">a\n>b\nAC\n>c\n")
	f.Add("\n;c\nAC\n>x\nA\n")
	f.Add(">x\nACGT\nAC!GT\nAC\n")
	f.Add(">x\nACGT\nACG*")
	f.Add(">chr1\tsome description\nACGT\n")
	f.Add(">x\nACGTACGTACGTAC#TACGT\nAC\n")
	f.Fuzz(func(t *testing.T, in string) {
		seqs, err := parseFASTA([]byte(in))
		want, wantErr := readFASTARef(strings.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(seqs) != len(want) {
			t.Fatalf("%d records, reference %d", len(seqs), len(want))
		}
		for i := range seqs {
			if seqs[i].Name != want[i].Name || seqs[i].Description != want[i].Description || !bytes.Equal(seqs[i].Data, want[i].Data) {
				t.Fatalf("record %d = (%q, %q, %q), reference (%q, %q, %q)", i,
					seqs[i].Name, seqs[i].Description, seqs[i].Data, want[i].Name, want[i].Description, want[i].Data)
			}
		}
		var buf bytes.Buffer
		if err := writeFASTA(&buf, seqs, 60); err != nil {
			t.Fatalf("accepted input failed to write: %v", err)
		}
		again, err := parseFASTA(buf.Bytes())
		if err != nil {
			t.Fatalf("written FASTA failed to parse: %v", err)
		}
		if len(again) != len(seqs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(seqs), len(again))
		}
		for i := range seqs {
			if seqs[i].Name != again[i].Name || !bytes.Equal(seqs[i].Data, again[i].Data) {
				t.Fatalf("record %d did not round-trip", i)
			}
		}
	})
}

// FuzzWordView checks the word view against the byte-at-a-time reference
// build for arbitrary input (the same words or the same error), and for
// valid input every window lane against laneOf, with every lane at or past
// the end unknown.
func FuzzWordView(f *testing.F) {
	f.Add([]byte("ACGT"))
	f.Add([]byte("acgtnACGTN"))
	f.Add(bytes.Repeat([]byte("ACGTNRY"), 20))
	f.Add([]byte{})
	f.Add([]byte("ACGTacgtUuGgCcAaTTGGCCAAacguACGUNNNNNNNNNNNNNNNNNNNNnnnnnnnnnnnnACgtACgtNNNnNNNN"))
	f.Add([]byte("acgtACGTNNNNNNNNNNNNnnnnnnnnNNNNACGTACGTACGTNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNACGTAC"))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTAC#TACGTACGTACGTACGTACGTACGTACGTACGTAC"))
	f.Fuzz(func(t *testing.T, in []byte) {
		if d := diffRef(in, nil); d != "" {
			t.Fatal(d)
		}
		v, err := NewWordView(in, nil)
		if err != nil {
			return
		}
		checkView(t, in, v)
	})
}

// FuzzPack checks the 2-bit codec never panics, that a non-IUPAC byte is
// rejected, and that valid sequences round-trip through the word view
// modulo ambiguity collapse (case folded, U as T, every other ambiguous
// code as N).
func FuzzPack(f *testing.F) {
	f.Add([]byte("ACGT"))
	f.Add([]byte("acgtn"))
	f.Add([]byte("RYSWKMBDHV"))
	f.Add([]byte{})
	f.Add([]byte("AC-GT"))
	f.Fuzz(func(t *testing.T, in []byte) {
		v, err := NewWordView(in, nil)
		if bad := slices.IndexFunc(in, func(b byte) bool { return !IsCode(b) }); bad >= 0 {
			if err == nil {
				t.Fatalf("invalid byte %q at offset %d accepted", in[bad], bad)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		out := unpack(v)
		if len(out) != len(in) {
			t.Fatalf("length changed: %d -> %d", len(in), len(out))
		}
		for i := range in {
			want := in[i] &^ 0x20
			if want == 'U' {
				want = 'T'
			}
			if !IsConcrete(in[i]) {
				want = 'N'
			}
			if out[i] != want {
				t.Fatalf("position %d: %q -> %q, want %q", i, in[i], out[i], want)
			}
		}
	})
}
