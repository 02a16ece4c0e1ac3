package kernels

import (
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/gpu/device"
)

// BenchmarkGroupKernels times the two group bodies alone on the simulator,
// one worker, over a 1 MiB hg38-like chunk: the finder with the SpCas9 PAM
// in ns per site, then the opt3 comparer over the finder's candidates with
// one guide at five mismatches in ns per candidate, both at a 512-item work
// group (the tuned MI100 shape). It is the layer number beside the
// end-to-end daemon-sycl and sim-paper workloads of benchmark/ and, like
// the root package's benchmarks, has no Makefile target:
//
//	go test -run '^$' -bench GroupKernels -benchmem ./internal/kernels
func BenchmarkGroupKernels(b *testing.B) {
	const wg = 512
	asm, err := genome.Generate(genome.HG38Like(1 << 20))
	if err != nil {
		b.Fatal(err)
	}
	var chr []byte
	for _, s := range asm.Sequences {
		chr = append(chr, s.Data...)
	}
	chr = chr[:min(len(chr), 1<<20)]
	pat, err := NewPatternPair([]byte("NNNNNNNNNNNNNNNNNNNNNRG"))
	if err != nil {
		b.Fatal(err)
	}
	guide, err := NewPatternPair([]byte("GGCCGACCTGTCGCTGACGCNNN"))
	if err != nil {
		b.Fatal(err)
	}
	dev := gpu.New(device.MI100(), gpu.WithWorkers(1))
	launch := func(b *testing.B, name string, items, plen int, phases func(lCodes []byte, lIndex []int32) []gpu.Phase) {
		b.Helper()
		_, err := dev.Launch(gpu.LaunchSpec{
			Name:   name,
			Global: gpu.R1(max((items+wg-1)/wg*wg, wg)),
			Local:  gpu.R1(wg),
			Phases: func() []gpu.Phase {
				return phases(make([]byte, 2*plen), make([]int32, 2*plen))
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}

	sites := len(chr) - pat.PatternLen + 1
	groups := (sites + wg - 1) / wg
	farena := alloc.NewHost(alloc.WorstCase(groups, wg))
	fa := &FinderArgs{
		Chr: chr, Pattern: pat, Sites: sites,
		Loci:  make([]uint32, farena.Layout.Slots()),
		Flags: make([]byte, farena.Layout.Slots()),
		Arena: farena.Device(),
	}
	finder, err := NewFinder(fa)
	if err != nil {
		b.Fatal(err)
	}
	runFinder := func(b *testing.B) {
		farena.Reset()
		launch(b, "finder", sites, pat.PatternLen, finder.Phases)
	}
	b.Run("finder", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			runFinder(b)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sites), "ns/site")
	})

	runFinder(b)
	geo, err := farena.Decode()
	if err != nil {
		b.Fatal(err)
	}
	loci, flags := alloc.Gather(geo, fa.Loci, nil), alloc.Gather(geo, fa.Flags, nil)
	carena := alloc.NewHost(alloc.WorstCase(max((len(loci)+wg-1)/wg, 1), 2*wg))
	ca := &ComparerArgs{
		Chr: chr, Loci: loci, Flags: flags, LociCount: uint32(len(loci)),
		Guide: guide, Threshold: 5,
		MMLoci:    make([]uint32, carena.Layout.Slots()),
		MMCount:   make([]uint16, carena.Layout.Slots()),
		Direction: make([]byte, carena.Layout.Slots()),
		Arena:     carena.Device(),
	}
	comparer, err := NewComparer(Opt3, ca)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("comparer", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			carena.Reset()
			launch(b, ComparerKernelName(Opt3), len(loci), guide.PatternLen, comparer.Phases)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(loci)), "ns/candidate")
	})
}
