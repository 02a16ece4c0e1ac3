package search

import (
	"context"
	"fmt"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// The ablation benchmarks of the CPU scan: the engine against the
// reference arms of ref_test.go on the upstream example scaffold.

const benchPattern = "NNNNNNNNNNNNNNNNNNNNNRG"

func benchAssembly(b *testing.B, bases int) *genome.Assembly {
	b.Helper()
	asm, err := genome.Generate(genome.HG38Like(bases))
	if err != nil {
		b.Fatal(err)
	}
	return asm
}

func benchRun(b *testing.B, eng Engine, asm *genome.Assembly, req *Request) {
	b.SetBytes(genome.Compose(asm).TotalBases)
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(asm, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPUPackedVsBytes is the ablation for the 2-bit sequence format
// (related work [21]): the same search through the reference byte path and
// the engine's packed SWAR path.
func BenchmarkCPUPackedVsBytes(b *testing.B) {
	asm := benchAssembly(b, 1<<21)
	req := &Request{
		Pattern: benchPattern,
		Queries: []Query{{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 5}},
	}
	b.Run("bytes", func(b *testing.B) { benchRun(b, &refCPU{Arm: refBytes}, asm, req) })
	b.Run("packed", func(b *testing.B) { benchRun(b, &CPU{}, asm, req) })
}

// BenchmarkSWARVsScalar pits the word-parallel mismatch kernel against the
// per-base packed reference over every forward window of a 64 KiB sequence,
// with the limit at the pattern length so both sides count all positions (a
// realistic threshold lets the scalar side exit early and would measure
// candidate sparsity, not the kernel). The SWAR side is the batched compare
// with every window a candidate; it touches one word per 32 bases instead of
// one lookup per base.
func BenchmarkSWARVsScalar(b *testing.B) {
	seq := benchAssembly(b, 1<<16).Sequences[0].Data
	pair, err := kernels.NewPatternPair([]byte("GGCCGACCTGTCGCTGACGCNNN"))
	if err != nil {
		b.Fatal(err)
	}
	v, err := genome.NewWordView(seq, nil)
	if err != nil {
		b.Fatal(err)
	}
	plen := pair.PatternLen
	limit := plen
	positions := int64(len(seq) - plen + 1)
	var sink int
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(positions)
		for i := 0; i < b.N; i++ {
			for pos := 0; pos+plen <= len(seq); pos++ {
				mm, _ := packedMismatches(pair, seq, pos, 0, limit)
				sink += mm
			}
		}
	})
	b.Run("swar", func(b *testing.B) {
		be, s := everyWindow(pair, v, len(seq), genome.PAMFwd, limit)
		b.SetBytes(positions)
		for i := 0; i < b.N; i++ {
			s.sc.entries = s.sc.entries[:0]
			be.compareGuides(s, 0, 1)
			sink += len(s.sc.entries)
		}
	})
	_ = sink
}

// BenchmarkMultiPatternBatch measures the batched multi-pattern scan: one
// genome pass testing all eight guides at each staged candidate window
// against eight independent single-guide passes (and the unbatched
// reference arm as the middle ablation). The batch amortises chunk staging,
// packing and candidate finding across the guide set.
func BenchmarkMultiPatternBatch(b *testing.B) {
	asm := benchAssembly(b, 1<<20)
	req := &Request{Pattern: benchPattern}
	for _, g := range []string{
		"GGCCGACCTGTCGCTGACGCNNN",
		"CGCCAGCGTCAGCGACAGGTNNN",
		"TACGATTACAGGCTGCATCANNN",
		"ATTGCCGGAATCGATCCGTANNN",
		"GGGCTATCCGGAATTCAGCGNNN",
		"CCATTAGGCTTACGGATCGANNN",
		"TTGACCGGTAAGCTAGCTCCNNN",
		"AACGGTCCTAGGATCCTGTTNNN",
	} {
		req.Queries = append(req.Queries, Query{Guide: g, MaxMismatches: 4})
	}
	b.Run("batched", func(b *testing.B) { benchRun(b, &CPU{}, asm, req) })
	b.Run("unbatched", func(b *testing.B) { benchRun(b, &refCPU{Arm: refNoBatch}, asm, req) })
	b.Run("independent", func(b *testing.B) {
		eng := &CPU{}
		b.SetBytes(genome.Compose(asm).TotalBases)
		for i := 0; i < b.N; i++ {
			for _, q := range req.Queries {
				sub := &Request{Pattern: req.Pattern, Queries: []Query{q}}
				if _, err := eng.Run(asm, sub); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCompareGuides is the compare layer alone: the PAM-prefiltered
// candidates of a generated 4 Mbase hg38-like assembly, found once, run
// through compareGuides with one and with three guides at <=5 mismatches,
// the benchmark's CLI op shape. It reports ns per candidate and per
// candidate×guide.
func BenchmarkCompareGuides(b *testing.B) {
	asm := benchAssembly(b, 4<<20)
	guides := []string{"GGCCGACCTGTCGCTGACGCNNN", "CGCCAGCGTCAGCGACAGGTNNN", "TACGATTACAGGCTGCATCANNN"}
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("guides=%d", n), func(b *testing.B) {
			req := &Request{Pattern: benchPattern}
			for _, g := range guides[:n] {
				req.Queries = append(req.Queries, Query{Guide: g, MaxMismatches: 5})
			}
			plan, err := pipeline.Compile(req)
			if err != nil {
				b.Fatal(err)
			}
			chunks, err := plan.Chunker.Plan(asm)
			if err != nil {
				b.Fatal(err)
			}
			be := newCPUBackend(plan).(*cpuBackend)
			staged := make([]*cpuStaged, len(chunks))
			cands := 0
			for i, ch := range chunks {
				staged[i] = &cpuStaged{ch: ch, sc: new(scanScratch)}
				v, err := genome.NewWordView(ch.Data, nil)
				if err != nil {
					b.Fatal(err)
				}
				staged[i].view = v
				staged[i].sc.findSWARCandidates(ch, staged[i].view, be.pattern, 0)
				cands += len(staged[i].sc.cand)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range staged {
					s.sc.entries = s.sc.entries[:0]
					if err := be.CompareAll(ctx, s); err != nil {
						b.Fatal(err)
					}
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(cands)
			b.ReportMetric(ns, "ns/cand")
			b.ReportMetric(ns/float64(n), "ns/cand-guide")
		})
	}
}
