package search

import (
	"context"
	"flag"
	"testing"
)

// BenchmarkSimPass is one simulated pass the size of a `daemon-sycl`
// request batch: a 1 Mbase hg38-like assembly (24 chunks), two guides at
// five mismatches, on an engine built through Options.Open as
// casoffinderd builds it and reused across iterations as the daemon reuses
// it. It reports ns, bytes and allocations per pass for each host API.
func BenchmarkSimPass(b *testing.B) {
	asm := benchAssembly(b, 1_000_000)
	req := &Request{
		Pattern: benchPattern,
		Queries: []Query{
			{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 5},
			{Guide: "CGCCAGCGTCAGCGACAGGTNNN", MaxMismatches: 5},
		},
	}
	for _, engine := range []string{"sycl", "opencl"} {
		b.Run(engine, func(b *testing.B) {
			var o Options
			o.Register(flag.NewFlagSet("bench", flag.ContinueOnError))
			o.Engine, o.Variant = engine, "auto" // as casoffinderd sets them
			eng, _, err := o.Open(nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.Stream(context.Background(), asm, req, func(Hit) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
