package search

import (
	"context"
	"fmt"
	"strings"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// The scan paths the SWAR+batch engine replaced, kept as the references the
// equivalence tests and the ablation benchmarks run it against: the
// one-byte-per-base scan and the per-base scan over the 2-bit packed format
// (the "2-bit sequence format" of the paper's related work [21], without
// word parallelism). internal/baseline stays the independent oracle; these
// share the engine's executor, chunking and drain so a divergence points at
// the scan.

// refArm selects a reference scan.
type refArm int

const (
	refBytes  refArm = iota // IUPAC byte tables, one base per load
	refScalar               // 2-bit codes against 4-bit masks, one base per lookup
)

// refCPU is CPU with the scan swapped for a reference arm.
type refCPU struct {
	Workers int
	Arm     refArm
}

func (c *refCPU) Name() string { return "cpu" }

func (c *refCPU) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), c, asm, req)
}

func (c *refCPU) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	x := &pipeline.Executor{Slots: make([]pipeline.Slot, (&CPU{Workers: c.Workers}).workers()), Track: c.Name()}
	for i := range x.Slots {
		x.Slots[i].Open = func(plan *pipeline.Plan) (pipeline.Backend, error) {
			return &refBackend{plan: plan, scalar: c.Arm == refScalar}, nil
		}
	}
	return x.Stream(ctx, asm, req, emit)
}

// refBackend runs the byte or the per-base packed arm under the pipeline
// Backend contract.
type refBackend struct {
	plan   *pipeline.Plan
	scalar bool
}

type refStaged struct {
	ch *genome.Chunk
	sc scanScratch
}

func (b *refBackend) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	return &refStaged{ch: ch}, nil
}

func (b *refBackend) Find(ctx context.Context, st pipeline.Staged) error {
	s := st.(*refStaged)
	if !b.scalar {
		s.sc.findCandidates(s.ch, b.plan.Pattern)
		return nil
	}
	for i, c := range s.ch.Data {
		if !genome.IsCode(c) {
			return fmt.Errorf("search: packing chunk at %s:%d: invalid code %q at offset %d", s.ch.SeqName, s.ch.Start, c, i)
		}
	}
	s.sc.findPackedCandidates(s.ch, b.plan.Pattern)
	return nil
}

// Compare runs one guide at a time over the candidates.
func (b *refBackend) Compare(ctx context.Context, st pipeline.Staged) error {
	s := st.(*refStaged)
	for qi, g := range b.plan.Guides {
		limit := b.plan.Request.Queries[qi].MaxMismatches
		if b.scalar {
			s.sc.comparePacked(s.ch.Data, g, qi, limit)
		} else {
			s.sc.compare(s.ch.Data, g, qi, limit)
		}
	}
	return nil
}

func (b *refBackend) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]Hit, error) {
	s := st.(*refStaged)
	return drainEntries(r, s.ch, b.plan.Guides, s.sc.entries)
}

func (b *refBackend) Release(pipeline.Staged) {}

func (b *refBackend) Close() error { return nil }

// windowMatches tests the PAM scaffold at the given strand offset.
func windowMatches(window []byte, p *kernels.PatternPair, offset int) bool {
	for j := 0; j < p.PatternLen; j++ {
		k := p.Index[offset+j]
		if k == -1 {
			break
		}
		if !genome.Matches(p.Codes[offset+int(k)], window[k]) {
			return false
		}
	}
	return true
}

// countMismatches counts mismatching guide positions at the strand offset,
// giving up past the limit.
func countMismatches(window []byte, g *kernels.PatternPair, offset, limit int) (int, bool) {
	mm := 0
	for j := 0; j < g.PatternLen; j++ {
		k := g.Index[offset+j]
		if k == -1 {
			break
		}
		if !genome.Matches(g.Codes[offset+int(k)], window[k]) {
			mm++
			if mm > limit {
				return mm, false
			}
		}
	}
	return mm, true
}

// renderSite is the one-shot site renderer; the streaming hot path uses the
// per-worker pipeline.SiteRenderer instead.
func renderSite(window []byte, guide *kernels.PatternPair, dir byte) string {
	var r pipeline.SiteRenderer
	return r.Render(window, guide, dir)
}

// findCandidates is the byte-path PAM prefilter over the chunk body. The
// chunk is scanned in place: the IUPAC tables accept soft-masked lower-case
// bases, and site rendering normalizes case.
func (sc *scanScratch) findCandidates(ch *genome.Chunk, pattern *kernels.PatternPair) {
	plen := pattern.PatternLen
	cand := sc.cand[:0]
	for pos := 0; pos < ch.Body; pos++ {
		window := ch.Data[pos : pos+plen]
		var strand uint8
		if windowMatches(window, pattern, 0) {
			strand |= genome.PAMFwd
		}
		if windowMatches(window, pattern, plen) {
			strand |= genome.PAMRev
		}
		if strand != 0 {
			cand = append(cand, genome.NewPAMEntry(pos, strand))
		}
	}
	sc.cand = cand
}

// compare tests one guide at every surviving candidate on the byte path.
func (sc *scanScratch) compare(data []byte, g *kernels.PatternPair, qi, limit int) {
	plen := g.PatternLen
	for _, cd := range sc.cand {
		pos := cd.Pos()
		window := data[pos : pos+plen]
		if cd.Strand()&genome.PAMFwd != 0 {
			if mm, ok := countMismatches(window, g, 0, limit); ok {
				sc.entries = append(sc.entries, rawHit{qi: qi, pos: pos, dir: kernels.DirForward, mm: mm})
			}
		}
		if cd.Strand()&genome.PAMRev != 0 {
			if mm, ok := countMismatches(window, g, plen, limit); ok {
				sc.entries = append(sc.entries, rawHit{qi: qi, pos: pos, dir: kernels.DirReverse, mm: mm})
			}
		}
	}
}

// scanChunk is the fused byte-path scan over one chunk — the PAM prefilter
// followed by every guide at every candidate, rendering hits as it goes, in
// the seed scan's order (position-major, then query, then strand).
func (sc *scanScratch) scanChunk(ch *genome.Chunk, pattern *kernels.PatternPair, guides []*kernels.PatternPair, queries []Query) ([]Hit, error) {
	sc.findCandidates(ch, pattern)
	plen := pattern.PatternLen
	var hits []Hit
	for _, cd := range sc.cand {
		pos := cd.Pos()
		window := ch.Data[pos : pos+plen]
		for qi, g := range guides {
			limit := queries[qi].MaxMismatches
			if cd.Strand()&genome.PAMFwd != 0 {
				if mm, ok := countMismatches(window, g, 0, limit); ok {
					hits = append(hits, Hit{
						QueryIndex: qi,
						SeqName:    ch.SeqName,
						Pos:        ch.Start + pos,
						Dir:        kernels.DirForward,
						Mismatches: mm,
						Site:       renderSite(window, g, kernels.DirForward),
					})
				}
			}
			if cd.Strand()&genome.PAMRev != 0 {
				if mm, ok := countMismatches(window, g, plen, limit); ok {
					hits = append(hits, Hit{
						QueryIndex: qi,
						SeqName:    ch.SeqName,
						Pos:        ch.Start + pos,
						Dir:        kernels.DirReverse,
						Mismatches: mm,
						Site:       renderSite(window, g, kernels.DirReverse),
					})
				}
			}
		}
	}
	return hits, nil
}

// packedCode is the 2-bit format's collapse rule restated over one raw
// byte: a concrete base is known and its code is its ACGT index (U counts
// as T, case is ignored); every other IUPAC code is unknown.
func packedCode(b byte) (code byte, known bool) {
	if !genome.IsConcrete(b) {
		return 0, false
	}
	return byte(min(strings.IndexByte("ACGTU", b&^0x20), 3)), true
}

// packedMismatches counts the indexed positions of g's strand half at offset
// whose 2-bit code in seq is unknown or outside the pattern code's IUPAC
// mask, giving up past the limit: one packedCode lookup per base.
func packedMismatches(g *kernels.PatternPair, seq []byte, pos, offset, limit int) (int, bool) {
	mm := 0
	for j := 0; j < g.PatternLen; j++ {
		k := g.Index[offset+j]
		if k == -1 {
			break
		}
		code, known := packedCode(seq[pos+int(k)])
		if !known || genome.MaskOf(g.Codes[offset+int(k)])&(1<<code) == 0 {
			mm++
			if mm > limit {
				return mm, false
			}
		}
	}
	return mm, true
}

// findPackedCandidates is the per-base packed PAM prefilter.
func (sc *scanScratch) findPackedCandidates(ch *genome.Chunk, pattern *kernels.PatternPair) {
	plen := pattern.PatternLen
	cand := sc.cand[:0]
	for pos := 0; pos < ch.Body; pos++ {
		var strand uint8
		if _, ok := packedMismatches(pattern, ch.Data, pos, 0, 0); ok {
			strand |= genome.PAMFwd
		}
		if _, ok := packedMismatches(pattern, ch.Data, pos, plen, 0); ok {
			strand |= genome.PAMRev
		}
		if strand != 0 {
			cand = append(cand, genome.NewPAMEntry(pos, strand))
		}
	}
	sc.cand = cand
}

// comparePacked tests one guide per base at every surviving candidate.
func (sc *scanScratch) comparePacked(seq []byte, g *kernels.PatternPair, qi, limit int) {
	plen := g.PatternLen
	for _, cd := range sc.cand {
		pos := cd.Pos()
		if cd.Strand()&genome.PAMFwd != 0 {
			if mm, ok := packedMismatches(g, seq, pos, 0, limit); ok {
				sc.entries = append(sc.entries, rawHit{qi: qi, pos: pos, dir: kernels.DirForward, mm: mm})
			}
		}
		if cd.Strand()&genome.PAMRev != 0 {
			if mm, ok := packedMismatches(g, seq, pos, plen, limit); ok {
				sc.entries = append(sc.entries, rawHit{qi: qi, pos: pos, dir: kernels.DirReverse, mm: mm})
			}
		}
	}
}
