package search

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// TestSWARPathsEquivalence: the engine's batched SWAR scan and the three
// reference arms — the byte path, the unbatched SWAR path and the per-base
// scalar packed path — all return byte-identical hits on randomized genomes.
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
			&refCPU{Workers: 2, Arm: refNoBatch},
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
		packed, err := genome.Pack(data)
		if err != nil {
			t.Fatal(err)
		}
		var a, b scanScratch
		a.findPackedCandidates(ch, packed, pair)
		b.findSWARCandidates(ch, packed.WordView(nil), bp, 0)
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
	allEngines := append(streamEngines(t),
		&MultiSYCL{
			Devices: []*gpu.Device{gpu.New(device.MI60(), gpu.WithWorkers(2)), gpu.New(device.MI100(), gpu.WithWorkers(2))},
			Variant: kernels.Opt2,
		},
	)
	for _, eng := range allEngines {
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

// Mismatches is mismatchesWords fetching each window word from v as it
// goes, for the window starting at pos.
func (b *bitPattern) Mismatches(v *genome.WordView, pos, offset, limit int) (int, bool) {
	h := &b.half[b.halfIndex(offset)]
	mm := 0
	for w := 0; w < b.words; w++ {
		if h.lanes[w] == 0 {
			continue
		}
		text, unk := v.Window(pos + w*32)
		mm += h.mismatchWord(text, unk, w)
		if mm > limit {
			return mm, false
		}
	}
	return mm, true
}

// FuzzSWARMismatch: on arbitrary IUPAC patterns and sequences the SWAR
// mismatch count, the per-base scalar packed count and the byte-path count
// agree exactly, for every strand half and limit.
func FuzzSWARMismatch(f *testing.F) {
	f.Add([]byte("NNNNNNNNNNGG"), []byte("GATTACAGTAGGACGTACGTNNRYacgt"), 0)
	f.Add([]byte("GANNTTNRYNGG"), []byte("gattacagtaggACGTACGT"), 3)
	f.Add([]byte("NGG"), []byte("AGGTGGNGGRGG"), 1)
	f.Fuzz(func(t *testing.T, pattern, seq []byte, limit int) {
		pair, err := kernels.NewPatternPair(pattern)
		if err != nil {
			return
		}
		packed, err := genome.Pack(seq)
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
		bp := compileBitPattern(pair)
		v := packed.WordView(nil)
		upper := genome.Upper(seq)
		for pos := 0; pos+plen <= len(seq); pos++ {
			for _, offset := range []int{0, plen} {
				mm, ok := bp.Mismatches(v, pos, offset, limit)
				smm, sok := bp.ScalarMismatches(packed, pos, offset, limit)
				bmm, bok := countMismatches(upper[pos:pos+plen], pair, offset, limit)
				if ok != sok || ok != bok {
					t.Fatalf("pos %d offset %d: pass/fail diverges: SWAR %v, scalar %v, byte %v",
						pos, offset, ok, sok, bok)
				}
				if ok {
					// Counts are exact only on the pass side; the rejecting
					// paths stop at different points past the limit (the
					// SWAR core counts a whole word at a time).
					if mm != smm || mm != bmm {
						t.Fatalf("pos %d offset %d: SWAR %d != scalar %d / byte %d mismatches",
							pos, offset, mm, smm, bmm)
					}
				} else if mm <= limit {
					t.Fatalf("pos %d offset %d: rejected with mm %d <= limit %d", pos, offset, mm, limit)
				}
			}
		}
	})
}
