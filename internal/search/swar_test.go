package search

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// TestSWARPathsEquivalence: the engine's batched SWAR scan and the two
// reference arms — the byte path and the per-base scalar packed path — all
// return byte-identical hits on randomized genomes.
func TestSWARPathsEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		asm := testAssembly(t, seed, []int{300 + rng.Intn(500), 40 + rng.Intn(100)}, testSite)
		req := &Request{
			Pattern: testPattern,
			Queries: []Query{
				{Guide: testGuide, MaxMismatches: rng.Intn(4)},
				{Guide: "GACCACAGTANN", MaxMismatches: rng.Intn(6)},
			},
			ChunkBytes: 100 + rng.Intn(400),
		}
		want, err := (&refCPU{Workers: 2, Arm: refBytes}).Run(asm, req)
		if err != nil {
			return false
		}
		for _, eng := range []Engine{
			&CPU{Workers: 2},
			&refCPU{Workers: 2, Arm: refScalar},
		} {
			got, err := eng.Run(asm, req)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if !equalHits(got, want) {
				t.Logf("seed %d: %#v diverged (%d vs %d hits)", seed, eng, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSWARFinderMatchesScalar: the 32-wide matchLanes prefilter selects
// exactly the candidates (positions and strand bits) of the per-base
// packed finder, including at chunk-body tails that are not a multiple
// of 32.
func TestSWARFinderMatchesScalar(t *testing.T) {
	pair, err := kernels.NewPatternPair([]byte(testPattern))
	if err != nil {
		t.Fatal(err)
	}
	bp := compileBitPattern(pair)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{12, 40, 63, 64, 65, 200, 333} {
		data := make([]byte, n)
		alphabet := []byte("ACGTN")
		for i := range data {
			if rng.Intn(4) == 0 {
				data[i] = testSite[rng.Intn(len(testSite))]
			} else {
				data[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		body := n - pair.PatternLen + 1
		if body <= 0 {
			continue
		}
		ch := &genome.Chunk{SeqName: "s", Data: data, Body: body}
		v, err := genome.NewWordView(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		var a, b scanScratch
		a.findPackedCandidates(ch, pair)
		b.findSWARCandidates(v, bp, 0, ch.Body)
		if len(a.cand) != len(b.cand) {
			t.Fatalf("n=%d: scalar found %d candidates, SWAR %d", n, len(a.cand), len(b.cand))
		}
		for i := range a.cand {
			if a.cand[i] != b.cand[i] {
				t.Fatalf("n=%d candidate %d: scalar %+v, SWAR %+v", n, i, a.cand[i], b.cand[i])
			}
		}
	}
}

// TestGuideWordLanes is the lane-by-lane oracle of a compiled guide word:
// each of the 15 IUPAC pattern codes against A, C, G, T and an unknown (N)
// genome lane, at every lane of word 0 and word 1 of a 64-base pattern whose
// other lanes mix single-base, degenerate and N codes, on both strand
// halves. Per word, bound never exceeds the byte path's count and bound plus
// degenerate equals it; the two words add up to countMismatches.
func TestGuideWordLanes(t *testing.T) {
	const iupac, bases, plen = "ACGTRYSWKMBDHVN", "ACGTN", 64
	rng := rand.New(rand.NewSource(17))
	pattern, seq := make([]byte, plen), make([]byte, plen)
	for k := range pattern {
		pattern[k] = iupac[(k*7)%len(iupac)]
		seq[k] = bases[rng.Intn(len(bases))]
	}
	for lane := 0; lane < plen; lane++ {
		for _, p := range []byte(iupac) {
			for _, b := range []byte(bases) {
				pattern[lane], seq[lane] = p, b
				pair, err := kernels.NewPatternPair(pattern)
				if err != nil {
					t.Fatal(err)
				}
				v, err := genome.NewWordView(seq, nil)
				if err != nil {
					t.Fatal(err)
				}
				tab := compileGuides([]*kernels.PatternPair{pair}, plen)
				for h := range 2 {
					codes := pair.Codes[h*plen:][:plen]
					total := 0
					for w := range tab.words {
						want := 0
						for k := 32 * w; k < 32*w+32; k++ {
							if codes[k] != 'N' && !genome.Matches(codes[k], seq[k]) {
								want++
							}
						}
						total += want
						g := &tab.rows[h*tab.words+w]
						x, unk := v.Window(32 * w)
						bound, deg := g.bound(x, unk), g.degenerate(x, unk)
						if bound > want || bound+deg != want {
							t.Fatalf("pattern %s lane %d = %c vs %c, half %d word %d: bound %d + degenerate %d, byte path %d",
								pattern, lane, p, b, h, w, bound, deg, want)
						}
					}
					if mm, _ := countMismatches(seq, pair, h*plen, plen); mm != total {
						t.Fatalf("pattern %s lane %d, half %d: words add to %d, countMismatches %d", pattern, lane, h, total, mm)
					}
				}
			}
		}
		pattern[lane] = iupac[(lane*7)%len(iupac)]
	}
}

// TestBatchedMatchesPerPattern: for every engine, one multi-query run must
// equal the merge of per-query Stream passes — the batched multi-pattern
// scan cannot change any single pattern's hits.
func TestBatchedMatchesPerPattern(t *testing.T) {
	asm := testAssembly(t, 53, []int{700, 450, 90}, testSite)
	req := &Request{
		Pattern: testPattern,
		Queries: []Query{
			{Guide: testGuide, MaxMismatches: 2},
			{Guide: "GACCACAGTANN", MaxMismatches: 4},
			{Guide: "TTTTACAGTANN", MaxMismatches: 3},
			{Guide: "GATTACAGTCNN", MaxMismatches: 1},
		},
		ChunkBytes: 300,
	}
	for _, eng := range streamEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			batched, err := eng.Run(asm, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(batched) == 0 {
				t.Fatal("no hits; fixture too sparse")
			}
			var merged []Hit
			for qi, q := range req.Queries {
				sub := &Request{Pattern: req.Pattern, Queries: []Query{q}, ChunkBytes: req.ChunkBytes}
				err := eng.Stream(context.Background(), asm, sub, func(h Hit) error {
					h.QueryIndex = qi
					merged = append(merged, h)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			sortHits(merged)
			if !equalHits(batched, merged) {
				t.Errorf("multi-query run != merged per-query streams (%d vs %d hits)", len(batched), len(merged))
			}
		})
	}
}

// TestCompareMultiWordPatterns: the batched compare past word 0. For
// pattern lengths on both sides of each 32-base word boundary up to five
// words, IUPAC guides at limits 0, mid and PatternLen over an
// N- and soft-mask-laden genome with sites planted on both strands, the CPU
// engine returns the byte path's hits exactly, at chunk sizes that cut
// through windows.
func TestCompareMultiWordPatterns(t *testing.T) {
	const iupac = "ACGTRYSWKMBDHVN"
	for _, plen := range []int{31, 32, 33, 63, 64, 65, 127, 128, 129, 130} {
		t.Run(fmt.Sprint(plen), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(plen)))
			site := []byte(strings.Repeat("G", plen))
			for i := range site[:plen-2] {
				site[i] = "ACGT"[rng.Intn(4)]
			}
			asm := testAssembly(t, int64(plen), []int{4*plen + 300, 2*plen + 50, plen}, string(site))
			req := &Request{Pattern: strings.Repeat("N", plen-2) + "GG"}
			for _, limit := range []int{0, plen / 4, plen} {
				// The site's bases, every fifth widened to an IUPAC code that
				// still admits it, and N over the PAM.
				guide := append([]byte(nil), site...)
				for i := range guide {
					if i >= plen-3 {
						guide[i] = 'N'
						continue
					}
					for rng.Intn(5) == 0 {
						if c := iupac[rng.Intn(len(iupac))]; genome.Matches(c, site[i]) {
							guide[i] = c
							break
						}
					}
				}
				req.Queries = append(req.Queries, Query{Guide: string(guide), MaxMismatches: limit})
			}
			for _, chunk := range []int{plen + 1, 1000} {
				req.ChunkBytes = chunk
				want, err := (&refCPU{Workers: 2, Arm: refBytes}).Run(asm, req)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || want[0].QueryIndex != 0 {
					t.Fatalf("chunk %d: the limit-0 guide has no hits; fixture too sparse", chunk)
				}
				got, err := (&CPU{Workers: 2}).Run(asm, req)
				if err != nil {
					t.Fatal(err)
				}
				if !equalHits(got, want) {
					t.Errorf("chunk %d: %d hits, byte path %d", chunk, len(got), len(want))
				}
			}
		})
	}
}

// everyWindow stages every window of v that fits n bases as a candidate on
// the given strands for one guide at limit, ready for the batched compare.
func everyWindow(pair *kernels.PatternPair, v *genome.WordView, n int, strand uint8, limit int) (*cpuBackend, *cpuStaged) {
	b := newCPUBackend(&pipeline.Plan{
		Request: &Request{Queries: []Query{{MaxMismatches: limit}}},
		Pattern: pair, Guides: []*kernels.PatternPair{pair},
	}).(*cpuBackend)
	s := &cpuStaged{sc: new(scanScratch), view: v}
	for pos := 0; pos+pair.PatternLen <= n; pos++ {
		s.cand = append(s.cand, genome.NewPAMEntry(pos, strand))
	}
	return b, s
}

// FuzzSWARMismatch: on arbitrary IUPAC patterns and sequences the batched
// compare's guide-table count, the per-base scalar packed count and the
// byte-path count agree exactly, for every window, strand half and limit:
// a window passes on one exactly when it passes on all three, with the same
// count. The 33-, 65- and 129-base seeds run the tail words past word 0,
// and the degenerate-lane seed a word-0 bound that passes on the
// single-base lanes alone, leaving the degenerate lanes to decide.
func FuzzSWARMismatch(f *testing.F) {
	f.Add([]byte("NNNNNNNNNNGG"), []byte("GATTACAGTAGGACGTACGTNNRYacgt"), 0)
	f.Add([]byte("GANNTTNRYNGG"), []byte("gattacagtaggACGTACGT"), 3)
	f.Add([]byte("NGG"), []byte("AGGTGGNGGRGG"), 1)
	// Word 0's only single-base lanes are the GG, so its bound never exceeds
	// the limit and the R, Y, S, W, K, M, B, D, H, V lanes decide every
	// window.
	f.Add([]byte("RYSWKMBDHVNGG"), []byte("AGCTGCAGTAGGCGTACGATTAGGTTAGGNGG"), 2)
	// Longer seeds whose first window is the pattern's own bases, every
	// fourth position a random IUPAC code, so that window passes; its last
	// base, alone in the last word, matches once (G) and mismatches once (C).
	rng := rand.New(rand.NewSource(31))
	for _, plen := range []int{33, 65, 129} {
		for _, last := range []byte("GC") {
			seq := make([]byte, plen+40)
			for i := range seq {
				seq[i] = "ACGTacgtN"[rng.Intn(9)]
			}
			seq[plen-1] = 'G'
			pattern := genome.Upper(seq[:plen])
			for i := range pattern[:plen-1] {
				if rng.Intn(4) == 0 {
					pattern[i] = "ACGTRYSWKMBDHVN"[rng.Intn(15)]
				}
			}
			pattern[plen-1] = last
			f.Add(pattern, seq, plen/4)
		}
	}
	f.Fuzz(func(t *testing.T, pattern, seq []byte, limit int) {
		pair, err := kernels.NewPatternPair(pattern)
		if err != nil {
			return
		}
		v, err := genome.NewWordView(seq, nil)
		if err != nil {
			return
		}
		plen := pair.PatternLen
		if len(seq) < plen {
			return
		}
		if limit < 0 {
			limit = -limit
		}
		limit %= plen + 2
		b, s := everyWindow(pair, v, len(seq), genome.PAMFwd|genome.PAMRev, limit)
		b.compareGuides(s)
		entries := s.sc.entries
		upper := genome.Upper(seq)
		for pos := 0; pos+plen <= len(seq); pos++ {
			for h, dir := range strandDir {
				smm, sok := packedMismatches(pair, seq, pos, h*plen, limit)
				bmm, bok := countMismatches(upper[pos:pos+plen], pair, h*plen, limit)
				ok := len(entries) > 0 && entries[0].pos == pos && entries[0].dir == dir
				if ok != sok || ok != bok {
					t.Fatalf("pos %d half %d: pass/fail diverges: table %v, scalar %v, byte %v", pos, h, ok, sok, bok)
				}
				if !ok {
					continue
				}
				// Counts are compared on the pass side only; the rejecting
				// paths stop at different points past the limit (the table
				// counts a whole word at a time).
				if mm := entries[0].mm; mm != smm || mm != bmm {
					t.Fatalf("pos %d half %d: table %d != scalar %d / byte %d mismatches", pos, h, mm, smm, bmm)
				}
				entries = entries[1:]
			}
		}
		if len(entries) != 0 {
			t.Fatalf("%d entries past the last window, first %+v", len(entries), entries[0])
		}
	})
}
