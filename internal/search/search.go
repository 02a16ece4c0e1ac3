// Package search is the core library of the reproduction: the Cas-OFFinder
// off-target search pipeline (§II.A) behind a clean Go API. A Request names
// a PAM-scaffold pattern, one or more guide queries with per-guide mismatch
// limits, and the assembly to scan; an Engine executes it.
//
// Three engines are provided:
//
//   - CPU — a production goroutine-parallel implementation for real use;
//   - SimCL — the OpenCL-style host program over the device simulator,
//     mirroring the paper's original application (runtime-chosen work-group
//     size, explicit buffer management, 13-step lifecycle);
//   - SimSYCL — the migrated SYCL-style host program (buffers + accessors,
//     queue submissions, work-group size 256).
//
// All engines are thin backend adapters over the shared streaming
// orchestrator in internal/pipeline: one copy of validation, chunk
// staging, hit rendering and sorting drives every backend's kernels. They
// return identical, deterministically ordered results; the simulator
// engines additionally return a Profile with per-kernel access statistics
// for the paper's performance analysis.
package search

import (
	"context"

	"casoffinder/internal/genome"
	"casoffinder/internal/pipeline"
)

// Query is one guide sequence with its mismatch budget, as one line of the
// Cas-OFFinder input file. It aliases the pipeline type so engines, the
// orchestrator and callers share one definition.
type Query = pipeline.Query

// Request describes one search.
type Request = pipeline.Request

// Hit is one reported off-target site.
type Hit = pipeline.Hit

// DefaultChunkBytes bounds one staged chunk when the request does not say.
const DefaultChunkBytes = pipeline.DefaultChunkBytes

// Engine executes a search over an assembly.
type Engine interface {
	// Name identifies the engine ("cpu", "opencl-sim", "sycl-sim").
	Name() string
	// Run executes the request and returns hits sorted by
	// (query, sequence, position, direction).
	Run(asm *genome.Assembly, req *Request) ([]Hit, error)
	// Stream executes the request, calling emit sequentially for every
	// hit as its chunk completes: hits arrive grouped by chunk in chunk
	// order, sorted within each chunk. A cancelled context or an emit
	// error aborts staging and in-flight dispatch and is returned.
	Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error
}

// Collect drains eng.Stream into the deterministic batch order Run
// promises; on error the partial hits are dropped and nil is returned.
// Engines implement Run with it.
func Collect(ctx context.Context, eng Engine, asm *genome.Assembly, req *Request) ([]Hit, error) {
	var hits []Hit
	if err := eng.Stream(ctx, asm, req, func(h Hit) error {
		hits = append(hits, h)
		return nil
	}); err != nil {
		return nil, err
	}
	sortHits(hits)
	return hits, nil
}

// sortHits puts hits into the deterministic output order.
func sortHits(hits []Hit) { pipeline.SortHits(hits) }
