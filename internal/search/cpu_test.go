package search

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// seedScanChunk is the pre-optimization scan kept as a reference: it copies
// the chunk to upper case and runs the PAM test and the guide comparison
// position by position in one pass. The two-phase byte scanChunk and the
// engine's SWAR backend must return exactly its hits.
func seedScanChunk(ch *genome.Chunk, pattern *kernels.PatternPair, guides []*kernels.PatternPair, queries []Query) ([]Hit, error) {
	data := genome.Upper(ch.Data)
	plen := pattern.PatternLen
	var hits []Hit
	for pos := 0; pos < ch.Body; pos++ {
		window := data[pos : pos+plen]
		fwd := windowMatches(window, pattern, 0)
		rev := windowMatches(window, pattern, plen)
		if !fwd && !rev {
			continue
		}
		for qi, g := range guides {
			limit := queries[qi].MaxMismatches
			if fwd {
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
			if rev {
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

// chunkFixture plans chunks over a planted assembly and parses the standard
// test pattern and guide.
func chunkFixture(t testing.TB, seed int64, bases, chunkBytes int) ([]*genome.Chunk, *kernels.PatternPair, []*kernels.PatternPair, []Query) {
	t.Helper()
	asm := testAssemblyTB(t, seed, []int{bases}, testSite)
	pattern, err := kernels.NewPatternPair([]byte(testPattern))
	if err != nil {
		t.Fatal(err)
	}
	guide, err := kernels.NewPatternPair([]byte(testGuide))
	if err != nil {
		t.Fatal(err)
	}
	chunker := &genome.Chunker{ChunkBytes: chunkBytes, PatternLen: pattern.PatternLen}
	chunks, err := chunker.Plan(asm)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("fixture produced %d chunks, want several", len(chunks))
	}
	return chunks, pattern, []*kernels.PatternPair{guide}, []Query{{Guide: testGuide, MaxMismatches: 2}}
}

// testAssemblyTB is testAssembly generalized to benchmarks.
func testAssemblyTB(tb testing.TB, seed int64, seqLens []int, site string) *genome.Assembly {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	asm := &genome.Assembly{Name: "test"}
	alphabet := []byte("ACGTacgtN")
	for si, n := range seqLens {
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[rng.Intn(len(alphabet))]
		}
		for p := 16; p+len(site)+4 < n; p += 96 + rng.Intn(64) {
			mutated := []byte(site)
			for m := 0; m < rng.Intn(4); m++ {
				mutated[rng.Intn(len(mutated))] = "ACGT"[rng.Intn(4)]
			}
			if rng.Intn(2) == 0 {
				genome.ReverseComplement(mutated)
			}
			copy(data[p:], mutated)
		}
		asm.Sequences = append(asm.Sequences, &genome.Sequence{
			Name: string(rune('a' + si)),
			Data: data,
		})
	}
	return asm
}

// backendScanChunk drives one chunk through the engine's backend the way a
// pipeline scan worker does.
func backendScanChunk(t testing.TB, be pipeline.Backend, ch *genome.Chunk) []Hit {
	t.Helper()
	ctx := context.Background()
	st, err := be.Stage(ctx, ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Find(ctx, st); err != nil {
		t.Fatal(err)
	}
	if err := be.Compare(ctx, st); err != nil {
		t.Fatal(err)
	}
	hits, err := be.Drain(ctx, st, new(pipeline.SiteRenderer))
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// TestScanChunkMatchesSeed checks that the two-phase in-place byte scan and
// the engine's SWAR backend return exactly the seed scan's hits, chunk by
// chunk, with the scratch reused across chunks the way a worker reuses it.
func TestScanChunkMatchesSeed(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		chunks, pattern, guides, queries := chunkFixture(t, seed, 3000, 400)
		be := newCPUBackend(&pipeline.Plan{
			Request: &Request{Pattern: testPattern, Queries: queries},
			Pattern: pattern, Guides: guides,
		})
		var sc scanScratch
		total := 0
		for ci, ch := range chunks {
			want, err := seedScanChunk(ch, pattern, guides, queries)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.scanChunk(ch, pattern, guides, queries)
			if err != nil {
				t.Fatal(err)
			}
			if !equalHits(got, want) {
				t.Errorf("seed %d chunk %d: two-phase hits diverge (%d vs %d)", seed, ci, len(got), len(want))
			}
			swar := backendScanChunk(t, be, ch)
			sortHits(swar)
			sortHits(want)
			if !equalHits(swar, want) {
				t.Errorf("seed %d chunk %d: SWAR backend hits diverge (%d vs %d)", seed, ci, len(swar), len(want))
			}
			total += len(want)
		}
		if total == 0 {
			t.Fatalf("seed %d: fixture produced no hits", seed)
		}
	}
}

// TestScanInnerLoopZeroAllocs pins the zero-allocation property of the hot
// scan: once the worker's scratch has grown, packing a chunk, finding its
// PAM candidates and comparing a guide that yields no hits must not
// allocate at all, and the compare alone allocates nothing at any pattern
// length.
func TestScanInnerLoopZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 4096)
	for i := range data {
		data[i] = "ACGTacgt"[rng.Intn(8)]
	}
	asm := &genome.Assembly{Name: "alloc", Sequences: []*genome.Sequence{{Name: "s", Data: data}}}
	// A guide that cannot occur in the ACGT-random data at zero mismatches:
	// the scan reaches the compare at every NGG candidate but never appends.
	req := &Request{Pattern: testPattern, Queries: []Query{{Guide: "CCCCCCCCCCNN", MaxMismatches: 0}}, ChunkBytes: 1024}
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := plan.Chunker.Plan(asm)
	if err != nil {
		t.Fatal(err)
	}
	b := newCPUBackend(plan).(*cpuBackend)
	s := &cpuStaged{sc: new(scanScratch)}
	candidates := 0
	scan := func() {
		for _, ch := range chunks {
			v, err := genome.NewWordView(ch.Data, s.sc.view)
			if err != nil {
				t.Fatal(err)
			}
			s.sc.view = v
			s.ch, s.view = ch, v
			s.sc.findSWARCandidates(s.view, b.pattern, 0, ch.Body)
			s.cand = s.sc.cand
			candidates += len(s.cand)
			b.compareGuides(s)
		}
	}
	scan() // warm the scratch on every chunk first
	if len(s.sc.entries) != 0 {
		t.Fatalf("workload unexpectedly produced %d entries", len(s.sc.entries))
	}
	if candidates == 0 {
		t.Fatal("workload produced no PAM candidates; the test would not exercise the compare")
	}
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Errorf("scan allocated %.1f times per pass over %d chunks, want 0", allocs, len(chunks))
	}
	// The compare keeps no buffers of its own: at a 23-base pattern (one
	// word) and a 140-base one whose word-0 bound passes (five words, each
	// tail word loaded on the way), it allocates nothing on a fresh scratch
	// and grows none of it, and allocates nothing on the scan's warm one.
	v, err := genome.NewWordView(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pattern string
		limit   int
	}{
		{"GGCCGACCTGTCGCTGACGCNNN", 0},
		{strings.Repeat("C", 137) + "NNN", 40},
	} {
		pair, err := kernels.NewPatternPair([]byte(c.pattern))
		if err != nil {
			t.Fatal(err)
		}
		cb, cold := everyWindow(pair, v, len(data), genome.PAMFwd|genome.PAMRev, c.limit)
		if allocs := testing.AllocsPerRun(50, func() { cb.compareGuides(cold) }); allocs != 0 || cold.sc.entries != nil {
			t.Errorf("%d-base pattern: compareGuides on a fresh scratch allocated %.1f times per call (entries %v), want 0 and none", pair.PatternLen, allocs, cold.sc.entries)
		}
		warm := &cpuStaged{view: v, cand: cold.cand, sc: s.sc}
		if allocs := testing.AllocsPerRun(50, func() { cb.compareGuides(warm) }); allocs != 0 || len(warm.sc.entries) != 0 {
			t.Errorf("%d-base pattern: warm compareGuides allocated %.1f times per call, %d entries; want 0 and none", pair.PatternLen, allocs, len(warm.sc.entries))
		}
	}
}

// TestCandidateEncoding: a candidate round-trips its position and strand
// bits at the edges of the 30-bit position range: pipeline.MaxChunkBytes
// for a repacked chunk, genome.MaxArtifactSeqLen for an artifact sequence.
func TestCandidateEncoding(t *testing.T) {
	const body = 1 << 20
	for _, pos := range []int{0, 1, body - 1, pipeline.MaxChunkBytes - 1, genome.MaxArtifactSeqLen - 1} {
		for strand := uint8(1); strand <= 3; strand++ {
			c := genome.NewPAMEntry(pos, strand)
			if c.Pos() != pos || c.Strand() != strand {
				t.Errorf("candidate(%d, %d) decodes to (%d, %d)", pos, strand, c.Pos(), c.Strand())
			}
		}
	}
}

// TestCPURunStopsOnScanError checks the early-cancellation path: when a
// chunk scan fails, the failing worker returns and the dispatcher must stop
// handing out the remaining chunks instead of deadlocking on a channel no
// one reads. It also pins that an assembly holding a non-IUPAC byte fails
// every CPU run with NewWordView's error: the byte scan the engine used to
// default to read such a byte as a mismatch instead.
func TestCPURunStopsOnScanError(t *testing.T) {
	data := make([]byte, 8192)
	for i := range data {
		data[i] = 'A'
	}
	data[10] = '!' // invalid in every chunk 0 position: first scan fails
	asm := &genome.Assembly{Name: "bad", Sequences: []*genome.Sequence{{Name: "s", Data: data}}}
	req := &Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: testGuide, MaxMismatches: 1}},
		ChunkBytes: 64, // many chunks, so a stuck dispatcher would hang
	}
	for _, workers := range []int{1, 4} {
		eng := &CPU{Workers: workers}
		_, err := eng.Run(asm, req)
		if err == nil {
			t.Fatalf("workers=%d: invalid chunk accepted", workers)
		}
		if !strings.Contains(err.Error(), "packing chunk") || !strings.Contains(err.Error(), "cannot pack invalid code") {
			t.Errorf("workers=%d: error = %v, want the pack failure", workers, err)
		}
	}
}
