package search

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// CPU is the production engine: a goroutine-parallel scan over genome
// chunks with no device simulation. It is the engine a downstream user
// would run; the simulator engines exist to reproduce the paper. Chunks are
// scanned in the 2-bit packed format (the upstream optimization noted in
// the paper's related work [21]) by the SWAR word-parallel core — 32 bases
// per uint64 load — with all guides batched into one pass per chunk.
type CPU struct {
	// Workers bounds the concurrent chunk scanners; 0 means NumCPU.
	Workers int
	// Trace and Metrics, when set, record pipeline spans and counters for
	// the run; nil leaves the hot path untouched.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
}

// Name implements Engine.
func (c *CPU) Name() string { return "cpu" }

func (c *CPU) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// Run implements Engine.
func (c *CPU) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), c, asm, req)
}

// Stream implements Engine: the executor over one slot, each with its own
// in-place chunk scanner, per configured CPU.
func (c *CPU) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	// The slots walk a mapped artifact's words and shards end to end; fault
	// them in up front rather than a page at a time across the run.
	if art := asm.Artifact(); art != nil {
		art.Prefault(art.HasPAMIndex(req.Pattern))
	}
	x := &pipeline.Executor{
		Slots:   make([]pipeline.Slot, c.workers()),
		Trace:   c.Trace,
		Metrics: c.Metrics,
		Track:   c.Name(),
	}
	for i := range x.Slots {
		x.Slots[i].Open = openCPUBackend
	}
	return x.Stream(ctx, asm, req, emit)
}

// cpuBackend adapts the goroutine scan to the pipeline Backend contract.
// Staging is free (chunks are scanned in place), so the executor's slots
// carry all the parallelism. Its Compare fuses all guides into one pass over
// each chunk's cached window words.
type cpuBackend struct {
	plan *pipeline.Plan
	// shards is set when the plan's artifact carries PAM shards built for
	// this request's scaffold: Find then skips the prefilter scan entirely
	// and slices the chunk's candidates out of the precomputed index.
	shards bool
	// The scaffold and guides compiled for word-parallel scanning, once per
	// run.
	pattern *bitPattern
	guides  guideTable
}

// newCPUBackend compiles the plan's patterns for the SWAR core. It is also
// the failover backend of the resilient simulator engines: its hit stream is
// byte-identical to theirs.
func newCPUBackend(plan *pipeline.Plan) pipeline.Backend {
	b := &cpuBackend{
		plan:    plan,
		pattern: compileBitPattern(plan.Pattern),
		guides:  compileGuides(plan.Guides, plan.Pattern.PatternLen),
	}
	if plan.Artifact != nil {
		b.shards = plan.Artifact.HasPAMIndex(plan.Request.Pattern)
	}
	return b
}

// openCPUBackend is newCPUBackend as a slot's (or a policy's fallback) opener.
func openCPUBackend(plan *pipeline.Plan) (pipeline.Backend, error) {
	return newCPUBackend(plan), nil
}

// cpuStaged is the CPU's staged-chunk handle: the chunk itself plus the
// pooled scratch claimed in Find and returned in Drain.
type cpuStaged struct {
	ch   *genome.Chunk
	sc   *scanScratch
	view *genome.WordView
	// cand is the chunk's candidates, each a position that survived the PAM
	// prefilter tagged with the strands on which the scaffold matched, in
	// view's coordinates: the pooled sc.cand after a prefilter scan, or the
	// artifact's mapped PAM shard window itself, read in place. A repacked
	// chunk owns at most pipeline.MaxChunkBytes positions and an artifact
	// sequence fewer than genome.MaxArtifactSeqLen, so either fits a
	// PAMEntry's 30 bits; four bytes a candidate is what keeps a dense
	// scaffold's buffer (~250k survivors of a 1 MiB chunk under NRG) and an
	// artifact's shards small.
	cand []genome.PAMEntry
	// base maps chunk-local positions into view's coordinates: ch.Start
	// when view is an artifact's resident whole-sequence view, 0 when it
	// was repacked from the chunk bytes.
	base int
}

// Stage implements pipeline.Backend. The CPU scans chunks in place, so
// staging only wraps the chunk.
func (b *cpuBackend) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	return &cpuStaged{ch: ch}, nil
}

// Find implements pipeline.Backend: the chunk's PAM candidates (the finder
// kernel's role). It prefers the artifact's resident whole-sequence view —
// no per-chunk word-view build, and with matching PAM shards no prefilter
// scan and no copy: the candidates are the shard's window of the chunk
// body, two binary searches away, checked in place. Otherwise the chunk's
// view is built here, in the scan worker, so the build parallelizes across
// chunks, and the prefilter fills the pooled candidate buffer.
func (b *cpuBackend) Find(ctx context.Context, st pipeline.Staged) error {
	s := st.(*cpuStaged)
	s.sc = scratchPool.Get().(*scanScratch)
	var err error
	if s.view, s.base, err = chunkView(b.plan.Artifact, s.ch, s.sc.view); err != nil {
		return fmt.Errorf("search: packing chunk at %s:%d: %w", s.ch.SeqName, s.ch.Start, err)
	}
	if b.shards && s.view != s.sc.view {
		s.cand = b.plan.Artifact.PAMRange(s.ch.SeqIndex, s.ch.Start, s.ch.Start+s.ch.Body)
		return checkShard(s.ch, s.cand)
	}
	s.sc.findSWARCandidates(s.view, b.pattern, s.base, s.ch.Body)
	s.cand = s.sc.cand
	return nil
}

// Compare implements pipeline.Backend: every guide over the surviving
// candidates (the comparer kernel's role) in one genome pass per chunk
// instead of one per guide.
func (b *cpuBackend) Compare(ctx context.Context, st pipeline.Staged) error {
	b.compareGuides(st.(*cpuStaged))
	return nil
}

// strandDir maps a strand half to its hit direction.
var strandDir = [2]byte{kernels.DirForward, kernels.DirReverse}

// compareGuides tests every guide at every surviving candidate. Each
// candidate's first window word is loaded once, and every guide's two strand
// halves are bounded against it, one XOR each, before its strand bits are
// read; only a half whose bound passes and whose bit is set goes on to
// scoreTail. Entries come out candidate, then guide, then forward before
// reverse. Windows are read at the candidates' view coordinates; only a hit
// pays the subtraction that makes its position chunk-local.
func (b *cpuBackend) compareGuides(s *cpuStaged) {
	rows, words, view := b.guides.rows, b.guides.words, s.view
	queries := b.plan.Request.Queries
	for _, cd := range s.cand {
		pos, strand := cd.Pos(), cd.Strand()
		x, unk := view.Window(pos)
		for qi := range queries {
			limit := queries[qi].MaxMismatches
			fw := rows[2*qi*words].Bound(x, unk)
			rv := rows[(2*qi+1)*words].Bound(x, unk)
			if fw <= limit && strand&genome.PAMFwd != 0 {
				b.scoreTail(s, pos, x, unk, qi, 0, fw, limit)
			}
			if rv <= limit && strand&genome.PAMRev != 0 {
				b.scoreTail(s, pos, x, unk, qi, 1, rv, limit)
			}
		}
	}
}

// scoreTail finishes the count of guide qi's strand half h at pos from mm,
// its bound over word 0's window x, unk: it adds word 0's degenerate lanes,
// then words 1.., each window loaded here, while the count can still pass,
// and records an entry if it does. Pass/fail and the recorded counts are
// the scalar paths'; a failing count may stop past limit+1, as whole words
// are counted at a time, but is never recorded.
func (b *cpuBackend) scoreTail(s *cpuStaged, pos int, x, unk uint64, qi, h, mm, limit int) {
	row := b.guides.rows[(2*qi+h)*b.guides.words:][:b.guides.words]
	mm += row[0].Degenerate(x, unk)
	for w := 1; w < len(row) && mm <= limit; w++ {
		x, unk := s.view.Window(pos + 32*w)
		mm += row[w].Bound(x, unk) + row[w].Degenerate(x, unk)
	}
	if mm <= limit {
		s.sc.entries = append(s.sc.entries, rawHit{qi: qi, pos: pos - s.base, dir: strandDir[h], mm: mm})
	}
}

// checkShard rejects a chunk whose PAM shard window holds an entry outside
// the chunk body or with no strand bit with a corruption-classed error,
// mirroring drainEntries. The prefilter cannot produce such an entry, so
// only a damaged artifact has one; it is caught before the compare reads a
// window at its position. A read-only pass: the window is not copied.
func checkShard(ch *genome.Chunk, shard []genome.PAMEntry) error {
	lo, n := uint64(ch.Start)<<2, uint64(ch.Body)<<2
	for _, e := range shard {
		if uint64(e)-lo >= n || e.Strand() == 0 {
			return fault.Errorf(fault.SiteArtifact, fault.Corruption,
				"search: chunk %s:%d: PAM shard entry %#x outside the %d-position chunk body", ch.SeqName, ch.Start, uint32(e), ch.Body)
		}
	}
	return nil
}

// Drain implements pipeline.Backend: render the accumulated entries and
// return the scratch to the pool.
func (b *cpuBackend) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]Hit, error) {
	s := st.(*cpuStaged)
	hits, err := drainEntries(r, s.ch, b.plan.Guides, s.sc.entries)
	s.release()
	return hits, err
}

// Release returns an abandoned handle's scratch to the pool so a retried or
// failed-over chunk does not strand it.
func (b *cpuBackend) Release(st pipeline.Staged) {
	if s, ok := st.(*cpuStaged); ok && s != nil && s.sc != nil {
		s.release()
	}
}

// release returns the handle's scratch to the pool with its entries reset.
func (s *cpuStaged) release() {
	s.sc.entries = s.sc.entries[:0]
	scratchPool.Put(s.sc)
	s.sc, s.view, s.cand = nil, nil, nil
}

// Close implements pipeline.Backend; the CPU holds no run-wide resources.
func (b *cpuBackend) Close() error { return nil }

// scanScratch holds per-worker buffers reused across chunks so the scan
// allocates nothing per position: candidate and entry accumulators and the
// chunk's word view (rebuilt in place each chunk).
type scanScratch struct {
	cand    []genome.PAMEntry
	entries []rawHit
	view    *genome.WordView
}

// scratchPool keeps one scanScratch per concurrent scan, and the word views
// the simulator backend repacks staged chunks into. It has package lifetime
// so a warm daemon's passes reuse the buffers of the passes before them
// instead of growing a fresh set on every request.
var scratchPool = sync.Pool{New: func() any { return &scanScratch{view: new(genome.WordView)} }}
