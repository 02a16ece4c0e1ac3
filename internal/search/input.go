package search

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Input is a parsed Cas-OFFinder input file:
//
//	/path/to/genome_dir            <- genome directory or FASTA file
//	NNNNNNNNNNNNNNNNNNNNNRG        <- PAM scaffold
//	GGCCGACCTGTCGCTGACGCNNN 5      <- guide and mismatch limit, repeated
//
// matching the example the paper's evaluation uses (reference [17]). The
// pattern line is the scaffold alone; a further column is an input error.
type Input struct {
	// GenomeDir is the directory (or single FASTA file) to scan.
	GenomeDir string
	// Request is the parsed search request.
	Request Request
}

// ParseInput reads an input file.
func ParseInput(r io.Reader) (*Input, error) {
	sc := bufio.NewScanner(r)
	var lines []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("search: reading input: %w", err)
	}
	if len(lines) < 3 {
		return nil, fmt.Errorf("search: input needs a genome path, a pattern and at least one query (got %d lines)", len(lines))
	}

	in := &Input{GenomeDir: lines[0]}

	patFields := strings.Fields(lines[1])
	if len(patFields) != 1 {
		return nil, fmt.Errorf("search: pattern line must be PATTERN alone (DNA/RNA bulge columns are not supported), got %q", lines[1])
	}
	in.Request.Pattern = strings.ToUpper(patFields[0])

	for _, line := range lines[2:] {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("search: query line must be GUIDE MISMATCHES, got %q", line)
		}
		mm, err := strconv.Atoi(fields[1])
		if err != nil || mm < 0 {
			return nil, fmt.Errorf("search: invalid mismatch count %q", fields[1])
		}
		in.Request.Queries = append(in.Request.Queries, Query{
			Guide:         strings.ToUpper(fields[0]),
			MaxMismatches: mm,
		})
	}
	if err := in.Request.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// WriteHit writes one hit in the upstream output format: guide sequence,
// chromosome, position, site (mismatches lower-case), strand, mismatch
// count.
func WriteHit(w io.Writer, req *Request, h Hit) error {
	guide := req.Queries[h.QueryIndex].Guide
	if _, err := fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%c\t%d\n",
		guide, h.SeqName, h.Pos, h.Site, h.Dir, h.Mismatches); err != nil {
		return fmt.Errorf("search: writing output: %w", err)
	}
	return nil
}

// WriteHitJSON writes one hit as a single NDJSON line: the hit's stable
// JSON fields (see pipeline.Hit) preceded by the resolved guide sequence, so
// a consumer never needs the request to interpret a line. It is the shared
// wire encoder of casoffinderd's streaming responses and the CLI's
// -format json output.
func WriteHitJSON(w io.Writer, req *Request, h Hit) error {
	rec := struct {
		Guide      string `json:"guide"`
		Query      int    `json:"query"`
		Seq        string `json:"seq"`
		Pos        int    `json:"pos"`
		Dir        string `json:"dir"`
		Mismatches int    `json:"mismatches"`
		Site       string `json:"site"`
	}{
		Guide:      req.Queries[h.QueryIndex].Guide,
		Query:      h.QueryIndex,
		Seq:        h.SeqName,
		Pos:        h.Pos,
		Dir:        string(h.Dir),
		Mismatches: h.Mismatches,
		Site:       h.Site,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("search: encoding hit: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("search: writing output: %w", err)
	}
	return nil
}

// WriteHits writes hits in the upstream output format, one line per hit.
func WriteHits(w io.Writer, req *Request, hits []Hit) error {
	bw := bufio.NewWriter(w)
	for _, h := range hits {
		if err := WriteHit(bw, req, h); err != nil {
			return err
		}
	}
	return bw.Flush()
}
