// Package pipeline is how every search engine runs: one copy of the request
// lifecycle up to a compiled Plan (validate, compile the PatternPairs, fix
// the genome.Chunker), the Backend contract the CPU scan and the two
// simulator host programs implement as thin adapters over their kernel
// launches, the one Executor that runs a plan's chunks over a set of
// backend slots with retry, failover and ordered emission, the
// Resilience policy with the run's Report, and hit rendering and the
// deterministic output order. The paper's central artifact is one
// application expressed against two programming models with identical
// results; this package is that shape in the repo, so adding a backend never
// re-implements the host program.
package pipeline

import (
	"context"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
)

// Plan is a compiled request: the validated pattern and guide tables plus
// the chunker that cuts the assembly into the executor's queue.
type Plan struct {
	// Request is the validated originating request.
	Request *Request
	// Pattern is the compiled PAM scaffold (both strands).
	Pattern *kernels.PatternPair
	// Guides holds one compiled pair per request query, in query order.
	Guides []*kernels.PatternPair
	// Chunker stages the assembly within the request's chunk budget.
	Chunker *genome.Chunker
	// Artifact is the persistent genome artifact backing the assembly, or
	// nil for FASTA-loaded assemblies. Executor.Stream fills it from
	// Assembly.Artifact; backends that can consume the
	// resident word views and PAM shards (the CPU SWAR scan, and through it
	// every resilience fallback) read it here, so artifact awareness needs
	// no Backend interface change.
	Artifact *genome.Artifact
}

// Compile validates the request and compiles its pattern tables.
func Compile(req *Request) (*Plan, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return compileValidated(req)
}

// compileValidated compiles an already-validated request.
func compileValidated(req *Request) (*Plan, error) {
	pattern, err := kernels.NewPatternPair([]byte(req.Pattern))
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	guides := make([]*kernels.PatternPair, len(req.Queries))
	for i, q := range req.Queries {
		if guides[i], err = kernels.NewPatternPair([]byte(q.Guide)); err != nil {
			return nil, fmt.Errorf("search: query %d: %w", i, err)
		}
	}
	chunker := &genome.Chunker{ChunkBytes: req.chunkBytes(), PatternLen: pattern.PatternLen}
	// Surface chunker parameter errors (budget smaller than the pattern)
	// now rather than mid-stream: a walk over an empty assembly runs
	// exactly the parameter validation.
	if err := chunker.Each(&genome.Assembly{}, func(*genome.Chunk) error { return nil }); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	return &Plan{Request: req, Pattern: pattern, Guides: guides, Chunker: chunker}, nil
}

// Staged is a backend's handle for one staged chunk. The pipeline treats it
// as opaque and hands it back to the same backend's scan methods.
type Staged any

// Backend executes the kernel side of the search for one engine. A backend
// is opened once per executor slot and driven by that slot's goroutine only,
// one chunk at a time.
//
// On the success path every staged chunk flows Stage → Find → Compare →
// Drain, one call each; how many kernel launches a phase makes (one comparer
// per query, none for a chunk without candidates) is the backend's business.
// On error or cancellation the attempt stops calling scan methods and hands
// the handle to Release; Close must then release whatever staged handles
// never reached Drain or Release, so an aborted run cannot leak device
// buffers.
type Backend interface {
	// Stage uploads one chunk and returns the backend's handle for it.
	Stage(ctx context.Context, ch *genome.Chunk) (Staged, error)
	// Find runs the PAM prefilter (the finder kernel) over the staged
	// chunk, keeping the surviving candidate sites in the handle.
	Find(ctx context.Context, st Staged) error
	// Compare runs the comparer for every query over the candidates,
	// accumulating raw entries in the handle. Per-chunk hits are sorted
	// afterwards, so entry order within the chunk is free.
	Compare(ctx context.Context, st Staged) error
	// Drain renders the accumulated entries into hits using the worker's
	// pooled renderer and releases the chunk's per-chunk resources.
	Drain(ctx context.Context, st Staged, r *SiteRenderer) ([]Hit, error)
	// Release frees the per-chunk resources of a handle whose attempt failed
	// after Stage, so a retried chunk does not hold device memory until
	// Close.
	Release(st Staged)
	// Close releases everything the backend still holds: run-wide state
	// and any staged handles that never reached Drain. It is called
	// exactly once, by the goroutine that drove the backend.
	Close() error
}
