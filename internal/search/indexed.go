package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// Indexed is a seed-and-extend CPU engine in the spirit of the FlashFry
// comparator the paper's related work discusses [20]: instead of testing
// every genome position against every guide, it splits each guide into
// maxMismatches+1 disjoint segments (the pigeonhole principle guarantees
// any site within the mismatch budget matches at least one segment
// exactly), indexes the segments as 2-bit k-mers, and verifies full sites
// only where a single pass over the genome finds a seed hit. Results are
// byte-identical to the scanning engines; queries whose guides cannot be
// seeded (degenerate cores, segments shorter than MinSeedLen) fall back to
// the plain scan.
type Indexed struct {
	// Workers bounds the concurrent per-sequence scanners; 0 means NumCPU.
	Workers int
	// MinSeedLen rejects seeds too short to be selective (default 6).
	MinSeedLen int
	// Trace and Metrics, when set, record coarse spans for the run
	// (validate, index, scan, emit — the engine is per-sequence, not
	// per-chunk, so spans are run- and sequence-granular); nil leaves the
	// hot path untouched. Both are forwarded to the fallback CPU engine.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	// Track overrides the trace track prefix (default the engine name).
	Track string
}

// Name implements Engine.
func (e *Indexed) Name() string { return "cpu-indexed" }

func (e *Indexed) track() string {
	if e.Track != "" {
		return e.Track
	}
	return e.Name()
}

// observed reports whether the run should time its phases at all.
func (e *Indexed) observed() bool { return e.Trace != nil || e.Metrics != nil }

// DefaultMinSeedLen is the shortest usable seed.
const DefaultMinSeedLen = 6

func (e *Indexed) minSeed() int {
	if e.MinSeedLen > 0 {
		return e.MinSeedLen
	}
	return DefaultMinSeedLen
}

// seedRef locates one indexed segment: which query and orientation it
// belongs to and where the segment starts relative to the site start.
type seedRef struct {
	query  int
	offset int // pattern coordinate of the segment start
	rev    bool
}

// seedIndex maps k-mer values to the segments bearing them, per seed
// length. A direct-mapped prefilter over the low bits of the k-mer rejects
// almost every window before the map lookup, keeping the rolling scan at a
// few instructions per base.
type seedIndex struct {
	k         int
	refs      map[uint64][]seedRef
	prefilter [prefilterSize]bool
}

// prefilterSize is the direct-mapped guard size (12 bits of k-mer).
const prefilterSize = 1 << 12

func (idx *seedIndex) insert(val uint64, ref seedRef) {
	idx.refs[val] = append(idx.refs[val], ref)
	idx.prefilter[val&(prefilterSize-1)] = true
}

var code2bit = [256]byte{'A': 0, 'C': 1, 'G': 2, 'T': 3}

func isACGT(b byte) bool { return b == 'A' || b == 'C' || b == 'G' || b == 'T' }

// kmerOf encodes an exact ACGT slice as 2 bits per base.
func kmerOf(seq []byte) (uint64, bool) {
	var v uint64
	for _, b := range seq {
		if !isACGT(b) {
			return 0, false
		}
		v = v<<2 | uint64(code2bit[b])
	}
	return v, true
}

// segmentsOf splits the contiguous core [start, end) into n disjoint
// near-equal parts.
func segmentsOf(start, end, n int) [][2]int {
	total := end - start
	segs := make([][2]int, 0, n)
	base := total / n
	rem := total % n
	at := start
	for i := 0; i < n; i++ {
		l := base
		if i < rem {
			l++
		}
		segs = append(segs, [2]int{at, at + l})
		at += l
	}
	return segs
}

// coreRun returns the contiguous non-N run of one strand of a pattern
// pair, or ok=false if the non-N positions are not contiguous.
func coreRun(p *kernels.PatternPair, offset int) (start, end int, ok bool) {
	start, end = -1, -1
	for i := 0; i < p.PatternLen; i++ {
		if p.Codes[offset+i] != 'N' {
			if start == -1 {
				start = i
			}
			end = i + 1
		}
	}
	if start == -1 {
		return 0, 0, false
	}
	for i := start; i < end; i++ {
		if p.Codes[offset+i] == 'N' {
			return 0, 0, false
		}
	}
	return start, end, true
}

// buildIndexes seeds every query it can; the returned fallback list holds
// query indices that need the plain scan.
func (e *Indexed) buildIndexes(guides []*kernels.PatternPair, queries []Query) (map[int]*seedIndex, []int) {
	indexes := map[int]*seedIndex{}
	var fallback []int
	for qi, g := range guides {
		parts := queries[qi].MaxMismatches + 1
		ok := true
		type pending struct {
			k   int
			val uint64
			ref seedRef
		}
		var pendings []pending
		for _, rev := range []bool{false, true} {
			offset := 0
			if rev {
				offset = g.PatternLen
			}
			start, end, contiguous := coreRun(g, offset)
			if !contiguous || (end-start)/parts < e.minSeed() {
				ok = false
				break
			}
			for _, seg := range segmentsOf(start, end, parts) {
				val, exact := kmerOf(g.Codes[offset+seg[0] : offset+seg[1]])
				if !exact {
					ok = false
					break
				}
				pendings = append(pendings, pending{
					k:   seg[1] - seg[0],
					val: val,
					ref: seedRef{query: qi, offset: seg[0], rev: rev},
				})
			}
			if !ok {
				break
			}
		}
		if !ok {
			fallback = append(fallback, qi)
			continue
		}
		for _, p := range pendings {
			idx := indexes[p.k]
			if idx == nil {
				idx = &seedIndex{k: p.k, refs: map[uint64][]seedRef{}}
				indexes[p.k] = idx
			}
			idx.insert(p.val, p.ref)
		}
	}
	return indexes, fallback
}

// Run implements Engine.
func (e *Indexed) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return e.run(context.Background(), asm, req)
}

// Stream implements Engine. The seed-and-extend scan is per-sequence, not
// per-chunk, so hits are emitted once the whole scan has merged into the
// deterministic order; cancellation still aborts the per-sequence workers
// between sequences.
func (e *Indexed) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	hits, err := e.run(ctx, asm, req)
	if err != nil {
		return err
	}
	observed := e.observed()
	var t0 time.Time
	if observed {
		t0 = time.Now()
	}
	for _, h := range hits {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := emit(h); err != nil {
			return err
		}
	}
	if observed {
		e.Trace.Complete(e.track(), "emit", -1, t0, time.Since(t0),
			obs.Attr{Key: "hits", Value: strconv.Itoa(len(hits))})
		e.Metrics.Count(obs.MetricHits, int64(len(hits)))
	}
	return nil
}

// run is the shared body of Run and Stream.
func (e *Indexed) run(ctx context.Context, asm *genome.Assembly, req *Request) ([]Hit, error) {
	observed := e.observed()
	track := e.track()
	var t0 time.Time
	if observed {
		t0 = time.Now()
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if observed {
		e.Trace.Complete(track, "validate", -1, t0, time.Since(t0))
		t0 = time.Now()
	}
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
	// An artifact with PAM shards for this scaffold replaces seeding
	// entirely: candidates come precomputed per sequence, every query is
	// verified directly at them (no per-query seedability constraint, so
	// the fallback scan disappears too), and the genome.Upper copy plus
	// the rolling k-mer pass are skipped.
	art := asm.Artifact()
	useShards := art != nil && art.HasPAMIndex(req.Pattern)
	var indexes map[int]*seedIndex
	var fallback []int
	if !useShards {
		indexes, fallback = e.buildIndexes(guides, req.Queries)
	}
	if observed {
		e.Trace.Complete(track, "index", -1, t0, time.Since(t0),
			obs.Attr{Key: "seed_lengths", Value: strconv.Itoa(len(indexes))},
			obs.Attr{Key: "fallback_queries", Value: strconv.Itoa(len(fallback))},
			obs.Attr{Key: "pam_shards", Value: strconv.FormatBool(useShards)})
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(asm.Sequences) {
		workers = len(asm.Sequences)
	}
	if workers < 1 {
		workers = 1
	}

	perSeq := make([][]Hit, len(asm.Sequences))
	var (
		wg       sync.WaitGroup
		scanOnce sync.Once
		scanErr  error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerTrack := track + "/worker" + strconv.Itoa(w)
			r := &pipeline.SiteRenderer{}
			scan := func(si int) []Hit {
				if useShards {
					hits, err := e.scanSequenceShards(art, si, asm.Sequences[si], pattern, guides, req.Queries, r)
					if err != nil {
						scanOnce.Do(func() { scanErr = err })
						return nil
					}
					return hits
				}
				return e.scanSequence(asm.Sequences[si], pattern, guides, req.Queries, indexes, r)
			}
			for si := range work {
				if ctx.Err() != nil {
					continue
				}
				if observed {
					st := time.Now()
					perSeq[si] = scan(si)
					d := time.Since(st)
					e.Trace.Complete(workerTrack, "scan", si, st, d,
						obs.Attr{Key: "sequence", Value: asm.Sequences[si].Name},
						obs.Attr{Key: "hits", Value: strconv.Itoa(len(perSeq[si]))})
					e.Metrics.Observe(obs.MetricScanSeconds, d.Seconds())
					continue
				}
				perSeq[si] = scan(si)
			}
		}(w)
	}
dispatch:
	for si := range asm.Sequences {
		select {
		case work <- si:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}

	var hits []Hit
	for _, h := range perSeq {
		hits = append(hits, h...)
	}

	// Fallback queries use the scanning engine on a request restricted to
	// them — its batched multi-pattern scan makes many fallback guides
	// cost one genome pass — then remap query indices.
	if len(fallback) > 0 {
		sub := &Request{Pattern: req.Pattern, ChunkBytes: req.ChunkBytes}
		for _, qi := range fallback {
			sub.Queries = append(sub.Queries, req.Queries[qi])
		}
		scanHits, err := Collect(ctx, &CPU{
			Workers: e.Workers,
			Trace:   e.Trace, Metrics: e.Metrics, Track: track + "/fallback",
		}, asm, sub)
		if err != nil {
			return nil, err
		}
		for _, h := range scanHits {
			h.QueryIndex = fallback[h.QueryIndex]
			hits = append(hits, h)
		}
	}
	sortHits(hits)
	return hits, nil
}

// scanSequenceShards verifies every query directly at the sequence's
// precomputed PAM candidates — the artifact-backed replacement for the
// seed-and-extend scan. The shard already encodes the scaffold match (and
// its strands), so no windowMatches re-check runs; entries that violate the
// sequence geometry can only come from artifact damage and reject the run
// with a corruption-classed error.
func (e *Indexed) scanSequenceShards(art *genome.Artifact, si int, seq *genome.Sequence, pattern *kernels.PatternPair, guides []*kernels.PatternPair, queries []Query, r *pipeline.SiteRenderer) ([]Hit, error) {
	plen := pattern.PatternLen
	data := seq.Data
	var hits []Hit
	for _, entry := range art.PAMRange(si, 0, len(data)) {
		pos := int(entry >> 2)
		strand := entry & 3
		if pos < 0 || pos+plen > len(data) || strand == 0 {
			return nil, fault.Errorf(fault.SiteArtifact, fault.Corruption,
				"search: sequence %s: PAM shard entry %#x outside the %d-base sequence", seq.Name, entry, len(data))
		}
		window := data[pos : pos+plen]
		for qi, g := range guides {
			limit := queries[qi].MaxMismatches
			if strand&genome.PAMFwd != 0 {
				if mm, ok := countMismatches(window, g, 0, limit); ok {
					hits = append(hits, Hit{
						QueryIndex: qi,
						SeqName:    seq.Name,
						Pos:        pos,
						Dir:        kernels.DirForward,
						Mismatches: mm,
						Site:       r.Render(window, g, kernels.DirForward),
					})
				}
			}
			if strand&genome.PAMRev != 0 {
				if mm, ok := countMismatches(window, g, plen, limit); ok {
					hits = append(hits, Hit{
						QueryIndex: qi,
						SeqName:    seq.Name,
						Pos:        pos,
						Dir:        kernels.DirReverse,
						Mismatches: mm,
						Site:       r.Render(window, g, kernels.DirReverse),
					})
				}
			}
		}
	}
	return hits, nil
}

// scanSequence rolls every seed length over the sequence, verifying full
// sites at seed hits with the worker's pooled site renderer.
func (e *Indexed) scanSequence(seq *genome.Sequence, pattern *kernels.PatternPair, guides []*kernels.PatternPair, queries []Query, indexes map[int]*seedIndex, r *pipeline.SiteRenderer) []Hit {
	data := genome.Upper(seq.Data)
	plen := pattern.PatternLen

	type siteKey struct {
		query int
		pos   int
		rev   bool
	}
	candidates := map[siteKey]struct{}{}

	ks := make([]int, 0, len(indexes))
	for k := range indexes {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		idx := indexes[k]
		if len(data) < k {
			continue
		}
		mask := uint64(1)<<(2*uint(k)) - 1
		var v uint64
		valid := 0 // consecutive ACGT bases ending at i
		for i := 0; i < len(data); i++ {
			b := data[i]
			if !isACGT(b) {
				valid = 0
				v = 0
				continue
			}
			v = (v<<2 | uint64(code2bit[b])) & mask
			valid++
			if valid < k {
				continue
			}
			if !idx.prefilter[v&(prefilterSize-1)] {
				continue
			}
			refs, hit := idx.refs[v]
			if !hit {
				continue
			}
			segStart := i - k + 1
			for _, ref := range refs {
				pos := segStart - ref.offset
				if pos < 0 || pos+plen > len(data) {
					continue
				}
				candidates[siteKey{query: ref.query, pos: pos, rev: ref.rev}] = struct{}{}
			}
		}
	}

	var hits []Hit
	for key := range candidates {
		g := guides[key.query]
		window := data[key.pos : key.pos+plen]
		strand := 0
		dir := kernels.DirForward
		if key.rev {
			strand = plen
			dir = kernels.DirReverse
		}
		if !windowMatches(window, pattern, strand) {
			continue
		}
		mm, ok := countMismatches(window, g, strand, queries[key.query].MaxMismatches)
		if !ok {
			continue
		}
		hits = append(hits, Hit{
			QueryIndex: key.query,
			SeqName:    seq.Name,
			Pos:        key.pos,
			Dir:        dir,
			Mismatches: mm,
			Site:       r.Render(window, g, dir),
		})
	}
	return hits
}

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
