package genome

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
)

// readFASTARef is the reference parser FuzzReadFASTA holds parseFASTA to: a
// buffered line loop that copies each line and each record. It must accept
// the same inputs, build the same records and fail with the same text.
func readFASTARef(r io.Reader) ([]*Sequence, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var (
		seqs []*Sequence
		cur  *Sequence
		buf  bytes.Buffer
		line int
	)
	flush := func() {
		if cur != nil {
			cur.Data = append([]byte(nil), buf.Bytes()...)
			seqs = append(seqs, cur)
			buf.Reset()
		}
	}
	for {
		raw, err := br.ReadBytes('\n')
		line++
		if len(raw) > 0 {
			text := bytes.TrimRight(raw, "\r\n")
			switch {
			case len(text) == 0:
				// blank line, skip
			case text[0] == '>':
				flush()
				header := strings.TrimSpace(string(text[1:]))
				if header == "" {
					return nil, fmt.Errorf("genome: line %d: empty FASTA header", line)
				}
				name, desc := header, ""
				if i := strings.IndexFunc(header, unicode.IsSpace); i >= 0 {
					name, desc = header[:i], strings.TrimSpace(header[i:])
				}
				cur = &Sequence{Name: name, Description: desc}
			case text[0] == ';':
				// old-style comment line, skip
			default:
				if cur == nil {
					return nil, fmt.Errorf("genome: line %d: sequence data before first header", line)
				}
				for i, b := range text {
					if !IsCode(b) {
						return nil, fmt.Errorf("genome: line %d: invalid nucleotide code %q at column %d", line, b, i+1)
					}
				}
				buf.Write(text)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("genome: reading FASTA: %w", err)
		}
	}
	flush()
	if len(seqs) == 0 {
		return nil, ErrEmptyFASTA
	}
	return seqs, nil
}

func TestReadFASTASingle(t *testing.T) {
	in := ">chr1 test sequence\nACGT\nACGT\n"
	seqs, err := parseFASTA([]byte(in))
	if err != nil {
		t.Fatalf("parseFASTA: %v", err)
	}
	if len(seqs) != 1 {
		t.Fatalf("got %d sequences, want 1", len(seqs))
	}
	s := seqs[0]
	if s.Name != "chr1" || s.Description != "test sequence" {
		t.Errorf("header parsed as (%q, %q)", s.Name, s.Description)
	}
	if string(s.Data) != "ACGTACGT" {
		t.Errorf("Data = %q, want ACGTACGT", s.Data)
	}
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
}

func TestReadFASTAMulti(t *testing.T) {
	in := ">a\nAC\nGT\n\n>b second\nNNNN\n;comment\n>c\nacgt"
	seqs, err := parseFASTA([]byte(in))
	if err != nil {
		t.Fatalf("parseFASTA: %v", err)
	}
	if len(seqs) != 3 {
		t.Fatalf("got %d sequences, want 3", len(seqs))
	}
	want := []struct{ name, data string }{{"a", "ACGT"}, {"b", "NNNN"}, {"c", "acgt"}}
	for i, w := range want {
		if seqs[i].Name != w.name || string(seqs[i].Data) != w.data {
			t.Errorf("seq %d = (%q, %q), want (%q, %q)", i, seqs[i].Name, seqs[i].Data, w.name, w.data)
		}
	}
}

// TestReadFASTAHeaderWhitespace: the name ends at the first whitespace of
// any kind, so a tab-separated description cannot leak into it (and from
// there into the tab-separated hit columns).
func TestReadFASTAHeaderWhitespace(t *testing.T) {
	in := ">chr1\tsome description\nACGT\n>chr2 \t spaced  out \nAC\n>chr3\t\nGT\n"
	seqs, err := parseFASTA([]byte(in))
	if err != nil {
		t.Fatalf("parseFASTA: %v", err)
	}
	want := []struct{ name, desc string }{{"chr1", "some description"}, {"chr2", "spaced  out"}, {"chr3", ""}}
	if len(seqs) != len(want) {
		t.Fatalf("got %d sequences, want %d", len(seqs), len(want))
	}
	for i, w := range want {
		if seqs[i].Name != w.name || seqs[i].Description != w.desc {
			t.Errorf("seq %d header parsed as (%q, %q), want (%q, %q)", i, seqs[i].Name, seqs[i].Description, w.name, w.desc)
		}
	}
}

func TestReadFASTACRLF(t *testing.T) {
	in := ">x\r\nACGT\r\nTTTT\r\n"
	seqs, err := parseFASTA([]byte(in))
	if err != nil {
		t.Fatalf("parseFASTA: %v", err)
	}
	if string(seqs[0].Data) != "ACGTTTTT" {
		t.Errorf("Data = %q", seqs[0].Data)
	}
}

func TestReadFASTAErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"only blank", "\n\n"},
		{"data before header", "ACGT\n>x\nA\n"},
		{"invalid code", ">x\nAC!T\n"},
		{"empty header", ">\nACGT\n"},
		{"empty header spaces", ">   \nACGT\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := parseFASTA([]byte(tt.in)); err == nil {
				t.Errorf("parseFASTA(%q) = nil error, want failure", tt.in)
			}
		})
	}
	if _, err := parseFASTA([]byte("")); !errors.Is(err, ErrEmptyFASTA) {
		t.Errorf("empty input error = %v, want ErrEmptyFASTA", err)
	}
}

// TestReadFASTAInvalidCodePosition: a bad byte found by the table scan is
// reported at its own line and column, past the blank line and the first
// eight-byte step alike.
func TestReadFASTAInvalidCodePosition(t *testing.T) {
	_, err := parseFASTA([]byte(">x\nACGT\n\nACGTACGTACGTAC#T\n"))
	want := `genome: line 4: invalid nucleotide code '#' at column 15`
	if err == nil || err.Error() != want {
		t.Errorf("error = %v, want %s", err, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	seqs := []*Sequence{
		{Name: "chr1", Description: "first", Data: []byte("ACGTACGTACGTACGT")},
		{Name: "chr2", Data: []byte("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN")},
		{Name: "chrM", Data: []byte("acgt")},
	}
	var buf bytes.Buffer
	if err := writeFASTA(&buf, seqs, 10); err != nil {
		t.Fatalf("writeFASTA: %v", err)
	}
	got, err := parseFASTA(buf.Bytes())
	if err != nil {
		t.Fatalf("parseFASTA: %v", err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("round trip lost sequences: %d != %d", len(got), len(seqs))
	}
	for i := range seqs {
		if got[i].Name != seqs[i].Name || !bytes.Equal(got[i].Data, seqs[i].Data) {
			t.Errorf("sequence %d did not round-trip", i)
		}
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"b.fa":       ">chrB\nGGGG\n",
		"a.fasta":    ">chrA\nAAAA\n",
		"notes.txt":  "not fasta",
		"c.fna":      ">chrC\nCCCC\n",
		"sub.hidden": "junk",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	asm, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	var names []string
	for _, s := range asm.Sequences {
		names = append(names, s.Name)
	}
	// Lexical file order: a.fasta, b.fa, c.fna.
	want := []string{"chrA", "chrB", "chrC"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("sequence order = %v, want %v", names, want)
	}
	if n := Compose(asm).TotalBases; n != 12 {
		t.Errorf("TotalBases = %d, want 12", n)
	}
	if asm.Sequence("chrB") == nil || asm.Sequence("nope") != nil {
		t.Error("Sequence lookup misbehaved")
	}
}

func TestLoadDirSingleFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "genome.fa")
	if err := os.WriteFile(path, []byte(">only\nACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	asm, err := LoadDir(path)
	if err != nil {
		t.Fatalf("LoadDir(file): %v", err)
	}
	if len(asm.Sequences) != 1 || asm.Sequences[0].Name != "only" {
		t.Errorf("unexpected assembly: %+v", asm)
	}
}

func TestLoadDirSingleFileNameNormalized(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{".fa", ".fasta", ".fna", ".FA"} {
		path := filepath.Join(dir, "chr1"+ext)
		if err := os.WriteFile(path, []byte(">only\nACGT\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		asm, err := LoadDir(path)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", path, err)
		}
		// Single-file loads must match what a directory load would name the
		// assembly: the bare stem, so artifact headers are stable across
		// both load paths.
		if asm.Name != "chr1" {
			t.Errorf("LoadDir(chr1%s).Name = %q, want chr1", ext, asm.Name)
		}
	}
}

func TestLoadDirDuplicateNames(t *testing.T) {
	// Across files: two chromosomes claiming one name used to load
	// silently, with Assembly.Sequence and every name-keyed consumer
	// resolving to whichever came first.
	dir := t.TempDir()
	for _, f := range []string{"a.fa", "b.fa"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(">chrDup\nACGT\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var dup *DuplicateNameError
	if _, err := LoadDir(dir); !errors.As(err, &dup) {
		t.Fatalf("LoadDir(dup across files) = %v, want DuplicateNameError", err)
	} else if dup.Name != "chrDup" {
		t.Errorf("DuplicateNameError.Name = %q, want chrDup", dup.Name)
	}

	// Within one file too.
	path := filepath.Join(t.TempDir(), "genome.fa")
	if err := os.WriteFile(path, []byte(">x\nAC\n>x\nGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(path); !errors.As(err, &dup) {
		t.Fatalf("LoadDir(dup in file) = %v, want DuplicateNameError", err)
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("LoadDir(missing) = nil error")
	}
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil {
		t.Error("LoadDir(empty dir) = nil error")
	}
}

func TestWriteFASTAFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.fa")
	seqs := []*Sequence{{Name: "x", Data: []byte("ACGT")}}
	if err := WriteFASTAFile(path, seqs, 0); err != nil {
		t.Fatalf("WriteFASTAFile: %v", err)
	}
	got, err := ReadFASTAFile(path)
	if err != nil {
		t.Fatalf("ReadFASTAFile: %v", err)
	}
	if string(got[0].Data) != "ACGT" {
		t.Errorf("Data = %q", got[0].Data)
	}
}

// TestReadFASTAFileDataAliasing pins the layout of a parsed file: records
// share one buffer, each capped at its own length, so growing one record
// moves it and leaves its neighbours' bytes alone.
func TestReadFASTAFileDataAliasing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.fa")
	in := ">a\nACGT\nAC\n>b desc\nGGGG\n>c\n>d\nTT\nNN\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, err := ReadFASTAFile(path)
	if err != nil {
		t.Fatalf("ReadFASTAFile: %v", err)
	}
	want := []string{"ACGTAC", "GGGG", "", "TTNN"}
	if len(seqs) != len(want) {
		t.Fatalf("got %d sequences, want %d", len(seqs), len(want))
	}
	for _, s := range seqs {
		if cap(s.Data) != len(s.Data) {
			t.Errorf("seq %s: cap(Data) = %d, len %d", s.Name, cap(s.Data), len(s.Data))
		}
	}
	for i := range seqs[:len(seqs)-1] {
		grown := append(seqs[i].Data, "TTTTTTTT"...)
		if string(grown) != want[i]+"TTTTTTTT" {
			t.Errorf("append to seq %s gave %q", seqs[i].Name, grown)
		}
		for j, s := range seqs {
			if string(s.Data) != want[j] {
				t.Fatalf("after appending to seq %s, seq %s = %q, want %q", seqs[i].Name, s.Name, s.Data, want[j])
			}
		}
	}
}

// writeGenerated writes asm as a FASTA file wrapped at width bases.
func writeGenerated(tb testing.TB, asm *Assembly, width int) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), fmt.Sprintf("w%d.fa", width))
	if err := WriteFASTAFile(path, asm.Sequences, width); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestReadFASTAFileAllocsFlat: the parse allocates per record, never per
// line, so the same records wrapped six times as often cost no more
// allocations.
func TestReadFASTAFileAllocsFlat(t *testing.T) {
	asm, err := Generate(HG38Like(1 << 15))
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	for _, width := range []int{10, 60} {
		path := writeGenerated(t, asm, width)
		allocs[width] = testing.AllocsPerRun(5, func() {
			if _, err := ReadFASTAFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[10] != allocs[60] {
		t.Errorf("ReadFASTAFile allocations: %v at 10 bases per line, %v at 60", allocs[10], allocs[60])
	}
}

var benchSeqs []*Sequence

// BenchmarkReadFASTAFile is the FASTA parse alone: MB/s of file read and
// parsed, and allocations per parse, over a generated 16 Mbase assembly at
// two line widths. Allocations stay a few per record at either width.
func BenchmarkReadFASTAFile(b *testing.B) {
	asm, err := Generate(HG38Like(1 << 24))
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{10, 60} {
		path := writeGenerated(b, asm, width)
		info, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.SetBytes(info.Size())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seqs, err := ReadFASTAFile(path)
				if err != nil {
					b.Fatal(err)
				}
				benchSeqs = seqs
			}
			b.ReportMetric(float64(len(benchSeqs)), "records")
		})
	}
}
