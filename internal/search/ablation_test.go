package search

import (
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
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
	b.SetBytes(asm.TotalLen())
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
// per-base packed reference over every window of a 64 KiB sequence, with
// the limit at the pattern length so both sides count all positions (a
// realistic threshold lets the scalar side exit early and would measure
// candidate sparsity, not the kernel). The SWAR core touches one word per
// 32 bases instead of one lookup per base; the gate is a >=3x speedup.
func BenchmarkSWARVsScalar(b *testing.B) {
	seq := benchAssembly(b, 1<<16).Sequences[0].Data
	pair, err := kernels.NewPatternPair([]byte("GGCCGACCTGTCGCTGACGCNNN"))
	if err != nil {
		b.Fatal(err)
	}
	bp := compileBitPattern(pair)
	packed, err := genome.Pack(seq)
	if err != nil {
		b.Fatal(err)
	}
	view := packed.WordView(nil)
	plen := pair.PatternLen
	limit := plen
	positions := int64(len(seq) - plen + 1)
	var sink int
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(positions)
		for i := 0; i < b.N; i++ {
			for pos := 0; pos+plen <= len(seq); pos++ {
				mm, _ := packedMismatches(pair, packed, pos, 0, limit)
				sink += mm
			}
		}
	})
	b.Run("swar", func(b *testing.B) {
		b.SetBytes(positions)
		for i := 0; i < b.N; i++ {
			for pos := 0; pos+plen <= len(seq); pos++ {
				mm, _ := bp.Mismatches(view, pos, 0, limit)
				sink += mm
			}
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
		b.SetBytes(asm.TotalLen())
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
