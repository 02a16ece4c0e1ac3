package pipeline

import (
	"errors"
	"fmt"
	"strings"

	"casoffinder/internal/genome"
)

// Query is one guide sequence with its mismatch budget, as one line of the
// Cas-OFFinder input file.
type Query struct {
	// Guide is the query sequence, same length as the request pattern,
	// with N at the PAM positions (e.g. "GGCCGACCTGTCGCTGACGCNNN").
	Guide string
	// MaxMismatches is the reporting threshold for this guide.
	MaxMismatches int
}

// Request describes one search.
type Request struct {
	// Pattern is the PAM scaffold: N at guide positions, PAM code at PAM
	// positions (e.g. "NNNNNNNNNNNNNNNNNNNNNRG").
	Pattern string
	// Queries are the guides to compare at every PAM-compatible site.
	Queries []Query
	// ChunkBytes bounds the device memory used for one sequence chunk;
	// 0 selects a sensible default.
	ChunkBytes int
}

// DefaultChunkBytes bounds one staged chunk when the request does not say.
const DefaultChunkBytes = 1 << 20

// MaxChunkBytes is the largest chunk budget a request may ask for. Engines
// rely on it: the CPU scan keeps a candidate's chunk-local position in 30
// bits.
const MaxChunkBytes = 1 << 30

// Hit is one reported off-target site. It carries no encoding of its own:
// the one NDJSON wire contract, shared by the server's hit stream and the
// CLI's -format json output, is search.AppendHitJSON.
type Hit struct {
	// QueryIndex identifies the guide in the request.
	QueryIndex int
	// SeqName is the chromosome/record name.
	SeqName string
	// Pos is the 0-based site start within the record.
	Pos int
	// Dir is '+' or '-'.
	Dir byte
	// Mismatches is the number of mismatched guide bases.
	Mismatches int
	// Site is the genomic sequence at the site, with mismatched positions
	// in lower case (the upstream output convention).
	Site string
}

// String formats a hit like a Cas-OFFinder output line:
// guide-index, chromosome, position, site, strand, mismatches.
func (h Hit) String() string {
	return fmt.Sprintf("%d\t%s\t%d\t%s\t%c\t%d", h.QueryIndex, h.SeqName, h.Pos, h.Site, h.Dir, h.Mismatches)
}

// Validate checks the request. The error messages keep the "search:" prefix
// the public search package has always reported; that package aliases these
// types, so they remain its API.
func (r *Request) Validate() error {
	if len(r.Pattern) == 0 {
		return errors.New("search: empty pattern")
	}
	if err := genome.Validate([]byte(strings.ToUpper(r.Pattern))); err != nil {
		return fmt.Errorf("search: pattern: %w", err)
	}
	if len(r.Queries) == 0 {
		return errors.New("search: no queries")
	}
	for i, q := range r.Queries {
		if len(q.Guide) != len(r.Pattern) {
			return fmt.Errorf("search: query %d: guide length %d != pattern length %d",
				i, len(q.Guide), len(r.Pattern))
		}
		if err := genome.Validate([]byte(strings.ToUpper(q.Guide))); err != nil {
			return fmt.Errorf("search: query %d: %w", i, err)
		}
		if q.MaxMismatches < 0 {
			return fmt.Errorf("search: query %d: negative mismatch limit", i)
		}
	}
	if r.ChunkBytes < 0 {
		return errors.New("search: negative chunk size")
	}
	if r.ChunkBytes > MaxChunkBytes {
		return fmt.Errorf("search: chunk size %d exceeds the %d-byte limit", r.ChunkBytes, MaxChunkBytes)
	}
	return nil
}

func (r *Request) chunkBytes() int {
	if r.ChunkBytes > 0 {
		return r.ChunkBytes
	}
	return DefaultChunkBytes
}
