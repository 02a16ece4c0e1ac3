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
// in ns per site, then the opt3 comparer over the finder's candidates in ns
// per candidate, both at a 512-item work group (the tuned MI100 shape).
// Each iteration builds its kernel, as a launch does, so per-launch set-up
// is in the number; the chunk's word view is built once, before, as a
// staged chunk's is, and its build alone is the view arm, in ns per base. The comparer arms mirror BenchmarkCompareGuides in
// internal/search: one concrete guide at five mismatches (comparer), the
// guide widened by R and Y inside the 20-mer (comparer,iupac), and the
// concrete guide at twelve (comparer,mm=12), where most candidates score
// far into the pattern. It is the layer number beside the end-to-end
// daemon-sycl and sim-paper workloads of benchmark/; make ci runs it once
// as a smoke test, and by hand:
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
	dev := gpu.New(device.MI100(), gpu.WithWorkers(1))
	launch := func(b *testing.B, name string, items, plen int, phases func(lCodes []byte, lIndex []int32) []gpu.Phase) {
		b.Helper()
		_, err := dev.Launch(gpu.LaunchSpec{
			Name:   name,
			Global: max((items+wg-1)/wg*wg, wg),
			Local:  wg,
			Phases: func() []gpu.Phase {
				return phases(make([]byte, 2*plen), make([]int32, 2*plen))
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}

	var view ChunkView
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			view.View, _ = genome.NewWordView(chr, view.View)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(chr)), "ns/base")
	})
	if view.View == nil { // the arm was filtered out
		view = viewOf(chr)
	}

	sites := len(chr) - pat.PatternLen + 1
	groups := (sites + wg - 1) / wg
	fl := alloc.WorstCase(groups, wg)
	fstate, farena := newArena(fl)
	fresh := fl.NewState()
	fa := &FinderArgs{
		Chr: chr, ChunkView: view, Pattern: pat, Sites: sites,
		Loci:  make([]uint32, fl.Slots()),
		Flags: make([]byte, fl.Slots()),
		Arena: farena,
	}
	runFinder := func(b *testing.B) {
		finder, err := NewFinder(fa)
		if err != nil {
			b.Fatal(err)
		}
		copy(fstate, fresh)
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
	geo, err := alloc.Decode(fl.PageSlots, fl.Pages, fstate)
	if err != nil {
		b.Fatal(err)
	}
	loci, flags := alloc.Gather(geo, fa.Loci, nil), alloc.Gather(geo, fa.Flags, nil)
	cl := alloc.WorstCase(max((len(loci)+wg-1)/wg, 1), 2*wg)
	cstate, carena := newArena(cl)
	cfresh := cl.NewState()
	for _, arm := range []struct {
		name, guide string
		limit       uint16
	}{
		{"comparer", "GGCCGACCTGTCGCTGACGCNNN", 5},
		{"comparer,iupac", "GGCCRACCTGTCGYTGACGCNNN", 5},
		{"comparer,mm=12", "GGCCGACCTGTCGCTGACGCNNN", 12},
	} {
		guide, err := NewPatternPair([]byte(arm.guide))
		if err != nil {
			b.Fatal(err)
		}
		ca := &ComparerArgs{
			Chr: chr, ChunkView: view, Loci: loci, Flags: flags, LociCount: uint32(len(loci)),
			Guide: guide, Threshold: arm.limit,
			MMLoci:    make([]uint32, cl.Slots()),
			MMCount:   make([]uint16, cl.Slots()),
			Direction: make([]byte, cl.Slots()),
			Arena:     carena,
		}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				comparer, err := NewComparer(Opt3, ca)
				if err != nil {
					b.Fatal(err)
				}
				copy(cstate, cfresh)
				launch(b, ComparerKernelName(Opt3), len(loci), guide.PatternLen, comparer.Phases)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(loci)), "ns/candidate")
		})
	}
}
