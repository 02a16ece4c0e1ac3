package kernels

import (
	"math/rand"
	"strings"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

// diffPipeline runs one pass through the group kernels and through the
// per-access reference and requires the same outcome: the same hits, the
// same dropped-entry counts and gpu.Stats struct equality for both
// launches — the timing model prices launches off those counters, so a cost
// plan must not move one of them. A pass that fails must fail on both sides.
func diffPipeline(t testing.TB, dev *gpu.Device, p pipelineRun) *pipelineResult {
	t.Helper()
	got, gotErr := p.run(t, dev)
	p.ref = true
	want, wantErr := p.run(t, dev)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil {
			t.Fatalf("group kernels: %v; reference: %v", gotErr, wantErr)
		}
		return nil
	}
	if !hitsEqual(got.hits, want.hits) {
		t.Errorf("hits diverge: group %d, reference %d", len(got.hits), len(want.hits))
	}
	if got.dropped != want.dropped {
		t.Errorf("dropped entries diverge: group %v, reference %v", got.dropped, want.dropped)
	}
	if *got.finder != *want.finder {
		t.Errorf("finder stats diverge:\ngroup     = %+v\nreference = %+v", *got.finder, *want.finder)
	}
	if *got.comparer != *want.comparer {
		t.Errorf("comparer %s stats diverge:\ngroup     = %+v\nreference = %+v", p.variant, *got.comparer, *want.comparer)
	}
	return got
}

// randomCodes draws n codes from alphabet.
func randomCodes(rng *rand.Rand, alphabet string, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return s
}

// TestGroupMatchesReference is the differential net under the cost plans:
// for the finder and every comparer variant, random sequences (soft-masked
// and unresolved bases included), patterns and guides with degenerate codes
// and with or without N, thresholds 0-8 and work-group sizes 32-256 must
// come out of the group kernels exactly as out of the per-access reference.
func TestGroupMatchesReference(t *testing.T) {
	dev := gpu.New(device.MI100(), gpu.WithWorkers(4))
	for _, v := range Variants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + v)))
			candidates, hits := int64(0), 0
			for trial := 0; trial < 40; trial++ {
				plen := 4 + rng.Intn(40) // past one 32-base SWAR word
				// A PAM-like pattern: all N but up to three positions, so the
				// finder passes a workable share of the sites on.
				pattern := randomCodes(rng, "N", plen)
				for n := rng.Intn(4); n > 0; n-- {
					pattern[rng.Intn(plen)] = "ACGTRYSWKMBDHV"[rng.Intn(14)]
				}
				guideCodes := "ACGT"
				if trial%2 == 0 {
					guideCodes = "ACGTACGTNNRYSWKMBDHV"
				}
				p := pipelineRun{
					seq:     randomCodes(rng, "ACGTACGTACGTacgtNRY", 600+rng.Intn(3000)),
					pattern: string(pattern),
					guide:   string(randomCodes(rng, guideCodes, plen)),
					maxMM:   rng.Intn(9),
					variant: v,
					wg:      32 << rng.Intn(4),
					// Half the trials read the chunk at an offset into its view.
					viewBase: trial % 2 * (trial + 3),
				}
				res := diffPipeline(t, dev, p)
				if t.Failed() {
					t.Fatalf("trial %d: %+v", trial, p)
				}
				candidates += res.comparer.WorkItems
				hits += len(res.hits)
			}
			if candidates < 10_000 || hits < 100 {
				t.Errorf("trials too sparse to pin the comparer: %d candidate items, %d hits", candidates, hits)
			}
		})
	}
	// Undersized pages under a pattern that matches everywhere: groups
	// overrun their pages, so claims fail on both sides, for both kernels,
	// at the same emissions. Pages of four slots fail inside the finder's
	// first 64-site block; pages of 70 hold a 65-site finder group exactly
	// (its comparer group emits 130 entries) and fill six sites into a
	// 130-site group's second block, where ClaimN grants part of a block.
	t.Run("overflow", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, arm := range []struct{ wg, pageSlots int }{{64, 4}, {65, 70}, {130, 70}} {
			for _, v := range Variants() {
				res := diffPipeline(t, dev, pipelineRun{
					seq: randomCodes(rng, "ACGT", 2000), pattern: "NNNNNNNN", guide: "ACGTNNNN",
					maxMM: 4, variant: v, wg: arm.wg, pageSlots: arm.pageSlots,
				})
				if finder := arm.wg > arm.pageSlots; (res.dropped[0] != 0) != finder || res.dropped[1] == 0 {
					t.Fatalf("%s, %+v: dropped %v entries, want the comparer arena overrun (finder: %v)",
						v, arm, res.dropped, finder)
				}
			}
		}
	})
}

// TestMismatchRows checks the row table the byte-walk oracles read against
// genome.Matches for every (pattern code, genome byte) pair.
func TestMismatchRows(t *testing.T) {
	rows := mismatchRows()
	for c := range 256 {
		for b := range 256 {
			if got, want := rows[c][b] == 1, !genome.Matches(byte(c), byte(b)); got != want || rows[c][b] > 1 {
				t.Fatalf("mismatchRows[%q][%q] = %d, want mismatch %v", c, b, rows[c][b], want)
			}
		}
	}
}

// TestCooperativeMatchesLegacy keeps the fixed workload of the scheduler-
// equivalence test the differential net grew out of: planted sites with 0-4
// mutations, so the comparer provably emits, through the barrier-dependent
// LDS staging of every paper variant.
func TestCooperativeMatchesLegacy(t *testing.T) {
	dev := gpu.New(device.MI100(), gpu.WithWorkers(4))
	rng := rand.New(rand.NewSource(99))
	seq := randomCodes(rng, "ACGTacgtACGTN", 8192)
	const pattern, guide = "NNNNNNNNNNNNNNNNNNNNNGG", "GGCCGACCTGTCGCTGACGCNNN"
	site := []byte("GGCCGACCTGTCGCTGACGCTGG")
	for s := 0; s < 16; s++ {
		mutated := append([]byte(nil), site...)
		for m := 0; m < s%5; m++ {
			mutated[rng.Intn(20)] = "ACGT"[rng.Intn(4)]
		}
		copy(seq[128+s*480:], mutated)
	}
	for _, v := range Variants() {
		t.Run(v.String(), func(t *testing.T) {
			res := diffPipeline(t, dev, pipelineRun{seq: seq, pattern: pattern, guide: guide, maxMM: 4, variant: v, wg: 64})
			if len(res.hits) == 0 {
				t.Fatal("workload should produce hits")
			}
		})
	}
}

// FuzzGroupKernels drives the same oracle from fuzzed inputs: any sequence
// bytes, any valid pattern and guide (cut to one length), and the launch
// shape. Seeds beyond the ones below live in testdata/fuzz.
func FuzzGroupKernels(f *testing.F) {
	f.Add([]byte("ACCGATTACAGGTTTGATTACAAGCCNNGATTACAGGACGTCCTGTAATCGG"), "NNNNNNNGG", "GATTACANN", uint8(1), uint8(15), uint8(0), uint8(0))
	f.Add([]byte("ccaggCCAGGnnAGGtcc"), "NGG", "NNN", uint8(0), uint8(3), uint8(1), uint8(2))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"), "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNRG", "ACGTACGTACGTACGTRYSWKMBDHVACGTACGTNNN", uint8(8), uint8(63), uint8(5), uint8(0))
	f.Add([]byte("GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG\x00\xffxxGGGG"), "GG", "GN", uint8(0), uint8(0), uint8(3), uint8(1))
	f.Add([]byte("AC"), "ACGT", "ACGT", uint8(2), uint8(7), uint8(4), uint8(0))
	// A 40-base IUPAC guide, two words, over invalid and soft-masked bytes:
	// the chunk's view packs \x00 and x as unknown lanes, which mismatch.
	f.Add([]byte(strings.Repeat("acgTAxGG\x00cCaRtgGnAGGtacgTTaGCcaggATcCG", 8)), strings.Repeat("N", 38)+"GG",
		"ACGTRYSWKMBDHVACGTACGTRYNNACGTACGTACGTNN", uint8(9), uint8(31), uint8(3), uint8(0))
	// Group sizes around the finder's 64-site blocks, site counts that are
	// no multiple of 64 and a final partial group.
	rng := rand.New(rand.NewSource(64))
	for _, wg := range []int{63, 64, 65, 256} {
		seq := randomCodes(rng, "ACGTacgtN", 4*wg+rng.Intn(wg))
		f.Add(seq, "NNNNNNNNRG", "ACGTACGTNN", uint8(3), uint8(wg-1), uint8(wg%5), uint8(0))
	}
	f.Add(randomCodes(rng, "ACGT", 203), "NNNNN", "ACNNN", uint8(2), uint8(129), uint8(3), uint8(70))
	// An invalid byte and a genome N inside PAM windows at the finder's
	// lane-31/32 boundary, where every other site matches: site 31 reads
	// the invalid byte under its first G, site 32 the N under its second.
	boundary := []byte(strings.Repeat("G", 90))
	boundary[31+7], boundary[32+8] = '\x00', 'N'
	f.Add(boundary, "NNNNNNNGG", "ACGTNNNNN", uint8(2), uint8(63), uint8(1), uint8(0))
	f.Add(boundary, "NNNNNNNGG", "ACGTNNNNN", uint8(9), uint8(31), uint8(2), uint8(0))
	dev := gpu.New(device.MI100(), gpu.WithWorkers(2))
	f.Fuzz(func(t *testing.T, seq []byte, pattern, guide string, threshold, wg, variant, pageSlots uint8) {
		n := min(len(pattern), len(guide), 64)
		if n == 0 || len(seq) > 1<<14 {
			t.Skip()
		}
		pattern, guide = pattern[:n], guide[:n]
		for _, s := range []string{pattern, guide} {
			if _, err := NewPatternPair([]byte(s)); err != nil {
				t.Skip()
			}
		}
		all := Variants()
		diffPipeline(t, dev, pipelineRun{
			seq: seq, pattern: pattern, guide: guide, maxMM: int(threshold),
			variant: all[int(variant)%len(all)], wg: 1 + int(wg), pageSlots: int(pageSlots),
			viewBase: len(seq) % 37,
		})
	})
}
