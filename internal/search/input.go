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

// WriteHitJSON writes one hit as a single NDJSON line (see AppendHitJSON).
// It is the shared wire encoder of casoffinderd's streaming responses and the
// CLI's -format json output. When w is a *bufio.Writer the line is built in
// the writer's free buffer, and a line that fits there costs no allocation.
func WriteHitJSON(w io.Writer, req *Request, h Hit) error {
	var err error
	if bw, ok := w.(*bufio.Writer); ok {
		_, err = bw.Write(AppendHitJSON(bw.AvailableBuffer(), req, h))
	} else {
		_, err = w.Write(AppendHitJSON(nil, req, h))
	}
	if err != nil {
		return fmt.Errorf("search: writing output: %w", err)
	}
	return nil
}

// AppendHitJSON appends one hit to dst as an NDJSON line and returns the
// extended slice. The line is the NDJSON wire contract: a JSON object with
// the fields guide (the resolved guide sequence, so a consumer never needs
// the request to read a line), query, seq, pos, dir (the strand as "+" or
// "-"), mismatches and site, in that order, then '\n'. Its bytes are those
// encoding/json writes for the same record: a string of printable ASCII
// other than `"`, `\`, `<`, `>` and `&` is copied between quotes, and any
// other string is quoted by encoding/json itself, HTML escaping, U+2028,
// U+2029 and invalid UTF-8 included.
func AppendHitJSON(dst []byte, req *Request, h Hit) []byte {
	dst = append(dst, `{"guide":`...)
	dst = appendJSONString(dst, req.Queries[h.QueryIndex].Guide)
	dst = append(dst, `,"query":`...)
	dst = strconv.AppendInt(dst, int64(h.QueryIndex), 10)
	dst = append(dst, `,"seq":`...)
	dst = appendJSONString(dst, h.SeqName)
	dst = append(dst, `,"pos":`...)
	dst = strconv.AppendInt(dst, int64(h.Pos), 10)
	dst = append(dst, `,"dir":`...)
	// Not string(rune(h.Dir)) for every strand: that string escapes into
	// json.Marshal and would cost an allocation per hit.
	if jsonVerbatim(h.Dir) {
		dst = append(dst, '"', h.Dir, '"')
	} else {
		dst = appendJSONString(dst, string(rune(h.Dir)))
	}
	dst = append(dst, `,"mismatches":`...)
	dst = strconv.AppendInt(dst, int64(h.Mismatches), 10)
	dst = append(dst, `,"site":`...)
	dst = appendJSONString(dst, h.Site)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string, byte-identical to
// json.Marshal(s).
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonVerbatim(s[i]) {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// jsonVerbatim reports whether encoding/json writes byte c of a string as
// itself.
func jsonVerbatim(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}
