package search

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestParseInputExample(t *testing.T) {
	in := `
# paper's example input ([17])
/var/chromosomes/human_hg38
NNNNNNNNNNNNNNNNNNNNNRG
GGCCGACCTGTCGCTGACGCNNN 5
CGCCAGCGTCAGCGACAGGTNNN 5
`
	parsed, err := ParseInput(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseInput: %v", err)
	}
	if parsed.GenomeDir != "/var/chromosomes/human_hg38" {
		t.Errorf("GenomeDir = %q", parsed.GenomeDir)
	}
	if parsed.Request.Pattern != "NNNNNNNNNNNNNNNNNNNNNRG" {
		t.Errorf("Pattern = %q", parsed.Request.Pattern)
	}
	if len(parsed.Request.Queries) != 2 {
		t.Fatalf("queries = %d", len(parsed.Request.Queries))
	}
	if parsed.Request.Queries[0].Guide != "GGCCGACCTGTCGCTGACGCNNN" || parsed.Request.Queries[0].MaxMismatches != 5 {
		t.Errorf("query 0 = %+v", parsed.Request.Queries[0])
	}
}

func TestParseInputLowerCaseFolded(t *testing.T) {
	in := "g.fa\nnnnnnnngg\ngattacann 1\n"
	parsed, err := ParseInput(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseInput: %v", err)
	}
	if parsed.Request.Pattern != "NNNNNNNGG" || parsed.Request.Queries[0].Guide != "GATTACANN" {
		t.Errorf("case folding failed: %+v", parsed.Request)
	}
}

func TestParseInputErrors(t *testing.T) {
	const bulgeColumns = "bulge columns are not supported"
	tests := []struct {
		name string
		in   string
		want string // substring of the error message
	}{
		{"too short", "genome\nNGG\n", "needs a genome path"},
		{"bad mismatch", "g\nNNNGG\nACGTN x\n", "invalid mismatch count"},
		{"negative mismatch", "g\nNNNGG\nACGTN -1\n", "invalid mismatch count"},
		{"bad query fields", "g\nNNNGG\nACGTN\n", "query line must be"},
		{"bad pattern fields", "g\nNNNGG 1\nACGTN 2\n", bulgeColumns},
		{"bulge columns", "g\nNNNGG 1 1\nACGTN 2\n", bulgeColumns},
		{"bad dna bulge", "g\nNNNGG x 1\nACGTN 2\n", bulgeColumns},
		{"bad rna bulge", "g\nNNNGG 1 x\nACGTN 2\n", bulgeColumns},
		{"length mismatch", "g\nNNNGG\nACGT 2\n", "guide length"},
		{"invalid code", "g\nNNNG!\nACGTN 2\n", "pattern"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseInput(strings.NewReader(tt.in))
			if err == nil {
				t.Fatalf("ParseInput(%q) accepted", tt.in)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("ParseInput(%q) = %v, want a message containing %q", tt.in, err, tt.want)
			}
		})
	}
}

// writeHits writes hits in the upstream output format, one line per hit.
func writeHits(w io.Writer, req *Request, hits []Hit) error {
	bw := bufio.NewWriter(w)
	for _, h := range hits {
		if err := WriteHit(bw, req, h); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func TestWriteHits(t *testing.T) {
	req := &Request{
		Pattern: "NNNNNNNGG",
		Queries: []Query{{Guide: "GATTACANN", MaxMismatches: 1}},
	}
	hits := []Hit{{
		QueryIndex: 0, SeqName: "chr1", Pos: 42, Dir: '+',
		Mismatches: 1, Site: "GATtACAGG",
	}}
	var buf bytes.Buffer
	if err := writeHits(&buf, req, hits); err != nil {
		t.Fatal(err)
	}
	want := "GATTACANN\tchr1\t42\tGATtACAGG\t+\t1\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
}
