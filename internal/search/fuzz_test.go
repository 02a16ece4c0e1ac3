package search

import (
	"strings"
	"testing"
)

// FuzzParseInput checks the input-file parser never panics, that every
// accepted input yields a validated request, and that the pattern line of an
// accepted input (the first non-comment line after the genome path) is one
// field: no bulge columns get through.
func FuzzParseInput(f *testing.F) {
	f.Add("genome\nNNNGG\nACGTN 2\n")
	f.Add("g\nNNNGG 1 1\nACGTN 2\nTTTTN 0\n")
	f.Add("# comment\ng\nNGG\nANN 0\n")
	f.Add("")
	f.Add("g\nNNNGG x\nACGTN 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		parsed, err := ParseInput(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := parsed.Request.Validate(); err != nil {
			t.Fatalf("accepted input has invalid request: %v", err)
		}
		if parsed.GenomeDir == "" {
			t.Fatal("accepted input has empty genome dir")
		}
		var lines []string
		for _, line := range strings.Split(in, "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				lines = append(lines, line)
			}
		}
		if len(lines) < 2 || len(strings.Fields(lines[1])) != 1 {
			t.Fatalf("accepted input whose pattern line is not one field: %q", in)
		}
	})
}
