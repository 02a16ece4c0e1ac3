// Package casoffinder_bench holds the run-by-hand measurements that need
// more than one internal package and the two root acceptance tests
// (TestAutotuneWithinBestFixed, TestColdStartRatio). The repository's
// benchmark is benchmark/ (bash benchmark/run.sh): it drives the real
// binaries and is the only place a wall-clock claim is made. The paper's
// tables and figures are rendered by cmd/benchtab and pinned by the shape
// tests of internal/bench. What is left here has no snapshot, no threshold
// and no Makefile target:
//
//	go test -run '^$' -bench 'ObsOverhead|ColdStart|Autotune' -benchmem .
package casoffinder_bench

import (
	"context"
	"math"
	"testing"

	"casoffinder/internal/bench"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/search"
	"casoffinder/internal/tune"
)

func benchAssembly(b *testing.B, bases int) *genome.Assembly {
	b.Helper()
	asm, err := genome.Generate(genome.HG38Like(bases))
	if err != nil {
		b.Fatal(err)
	}
	return asm
}

func benchRequest() *search.Request {
	return &search.Request{
		Pattern: bench.ExamplePattern,
		Queries: []search.Query{
			{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 5},
		},
	}
}

// BenchmarkObsOverhead measures the observability layer's cost on the
// multi-chunk streaming search: "off" is the production configuration (nil
// tracer and registry), "traced" records every span and counter. One sample
// cannot resolve a 2% difference; compare the rows over -count 10 or more.
func BenchmarkObsOverhead(b *testing.B) {
	asm := benchAssembly(b, 1<<21)
	req := benchRequest()
	req.ChunkBytes = 1 << 16
	stream := func(b *testing.B, eng *search.CPU) {
		b.Helper()
		b.SetBytes(genome.Compose(asm).TotalBases)
		var sink int
		for i := 0; i < b.N; i++ {
			err := eng.Stream(context.Background(), asm, req, func(search.Hit) error {
				sink++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		_ = sink
	}
	b.Run("off", func(b *testing.B) {
		stream(b, &search.CPU{})
	})
	b.Run("traced", func(b *testing.B) {
		stream(b, &search.CPU{Trace: obs.NewTracer(), Metrics: obs.NewMetrics()})
	})
}

// BenchmarkColdStart measures time-to-first-hit from cold storage: parse a
// genome directory versus load the persistent artifact, then stream the
// packed CPU engine until the first hit lands. The FASTA row pays a full
// parse plus scan-time packing and prefiltering; the artifact row pays an
// O(header) checksummed read and consumes the resident word views and the
// precomputed PAM shards. TestColdStartRatio asserts the >=10x ratio.
func BenchmarkColdStart(b *testing.B) {
	fastaDir, artPath, req := coldStartFixture(b, 1<<22)
	b.Run("fasta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded, err := genome.LoadDir(fastaDir)
			if err != nil {
				b.Fatal(err)
			}
			coldFirstHit(b, loaded, req)
		}
	})
	b.Run("artifact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded, err := genome.LoadArtifact(artPath)
			if err != nil {
				b.Fatal(err)
			}
			coldFirstHit(b, loaded.Assembly(), req)
			if err := loaded.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAutotune runs the SYCL engine at the tuner's per-device selection
// against the best and worst fixed (variant, work-group size) pairs the cost
// model can name (via tune.Predict): the tuned row must track the best-fixed
// row — it launches the same kernel plus one Select — and the
// worst-fixed row documents what a bad hand pick costs. The model's own
// ms/chunk prediction rides along as a custom metric.
func BenchmarkAutotune(b *testing.B) {
	asm := benchAssembly(b, 1<<17)
	req := benchRequest()
	req.ChunkBytes = 1 << 15
	run := func(b *testing.B, eng *search.SimSYCL) {
		b.SetBytes(genome.Compose(asm).TotalBases)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(asm, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, spec := range device.All() {
		cfg := tune.Config{Spec: spec, PatternLen: len(req.Pattern), Queries: len(req.Queries), ChunkBytes: req.ChunkBytes}
		d, err := tune.Select(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst := d.Candidates[len(d.Candidates)-1]
		b.Run(spec.Name+"/tuned", func(b *testing.B) {
			b.ReportMetric(d.Predicted*1e3, "pred-ms/chunk")
			run(b, &search.SimSYCL{Device: gpu.New(spec, gpu.WithWorkers(2)), Auto: true})
		})
		b.Run(spec.Name+"/best-fixed", func(b *testing.B) {
			b.ReportMetric(tune.Predict(cfg, d.Variant, d.WGSize)*1e3, "pred-ms/chunk")
			run(b, &search.SimSYCL{Device: gpu.New(spec, gpu.WithWorkers(2)), Variant: d.Variant, WorkGroupSize: d.WGSize})
		})
		b.Run(spec.Name+"/worst-fixed", func(b *testing.B) {
			b.ReportMetric(worst.Predicted*1e3, "pred-ms/chunk")
			run(b, &search.SimSYCL{Device: gpu.New(spec, gpu.WithWorkers(2)), Variant: worst.Variant, WorkGroupSize: worst.WGSize})
		})
	}
}

// TestAutotuneWithinBestFixed is the autotuner's acceptance gate at the
// repository root: on every Table VII device the selected (variant,
// work-group size) must score within 5% of the best fixed pair under the
// same model — exact by construction (argmin).
func TestAutotuneWithinBestFixed(t *testing.T) {
	req := benchRequest()
	for _, spec := range device.All() {
		cfg := tune.Config{Spec: spec, PatternLen: len(req.Pattern), Queries: len(req.Queries)}
		d, err := tune.Select(cfg)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		var bestV kernels.ComparerVariant
		var bestWG int
		for _, v := range kernels.Variants() {
			for _, wg := range tune.DefaultWGSizes() {
				if p := tune.Predict(cfg, v, wg); p > 0 && p < best {
					best, bestV, bestWG = p, v, wg
				}
			}
		}
		got := tune.Predict(cfg, d.Variant, d.WGSize)
		if got > best*1.05 {
			t.Errorf("%s: tuned (%s, %d) predicts %.6gs, best fixed (%s, %d) %.6gs — beyond the 5%% gate",
				spec.Name, d.Variant, d.WGSize, got, bestV, bestWG, best)
		}
	}
}
