package search

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"casoffinder/internal/baseline"
	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// testAssembly builds a small deterministic assembly with planted
// approximate sites for the given guide+PAM.
func testAssembly(t *testing.T, seed int64, seqLens []int, site string) *genome.Assembly {
	t.Helper()
	return testAssemblyTB(t, seed, seqLens, site)
}

const (
	testPattern = "NNNNNNNNNNGG"
	testGuide   = "GATTACAGTANN"
	testSite    = "GATTACAGTAGG"
)

func testRequest(maxMM int) *Request {
	return &Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: testGuide, MaxMismatches: maxMM}},
		ChunkBytes: 300, // force many chunks
	}
}

// baselineHits computes the expected hits with the naive reference.
func baselineHits(t *testing.T, asm *genome.Assembly, req *Request) []Hit {
	t.Helper()
	var all []Hit
	for qi, q := range req.Queries {
		g, err := kernels.NewPatternPair([]byte(q.Guide))
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range asm.Sequences {
			data := genome.Upper(seq.Data)
			hits, err := baseline.Search(data, []byte(strings.ToUpper(req.Pattern)), []byte(strings.ToUpper(q.Guide)), q.MaxMismatches)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				window := data[h.Pos : h.Pos+len(req.Pattern)]
				all = append(all, Hit{
					QueryIndex: qi,
					SeqName:    seq.Name,
					Pos:        h.Pos,
					Dir:        h.Dir,
					Mismatches: h.Mismatches,
					Site:       renderSite(window, g, h.Dir),
				})
			}
		}
	}
	sortHits(all)
	return all
}

func equalHits(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func engines(t *testing.T) []Engine {
	t.Helper()
	return []Engine{
		&CPU{Workers: 4},
		&SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Variant: kernels.Base},
		&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Opt3, WorkGroupSize: 64},
	}
}

// TestEnginesMatchBaseline is the central equivalence test: every engine
// must return exactly the reference hits, across chunk boundaries, multiple
// sequences and soft-masked/N-containing input.
func TestEnginesMatchBaseline(t *testing.T) {
	asm := testAssembly(t, 11, []int{700, 450, 90, 5}, testSite)
	req := testRequest(2)
	want := baselineHits(t, asm, req)
	if len(want) == 0 {
		t.Fatal("reference produced no hits; test data is too sparse")
	}
	for _, eng := range engines(t) {
		got, err := eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !equalHits(got, want) {
			t.Errorf("%s: %d hits != reference %d", eng.Name(), len(got), len(want))
			for i := 0; i < len(got) && i < 5; i++ {
				t.Logf("  got[%d]  = %+v", i, got[i])
			}
			for i := 0; i < len(want) && i < 5; i++ {
				t.Logf("  want[%d] = %+v", i, want[i])
			}
		}
	}
}

// TestEnginesEquivalentProperty: random assemblies, all engines agree with
// the reference bit for bit.
func TestEnginesEquivalentProperty(t *testing.T) {
	engs := engines(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		asm := testAssembly(t, seed, []int{200 + rng.Intn(600), 100 + rng.Intn(300)}, testSite)
		req := testRequest(rng.Intn(4))
		req.ChunkBytes = 64 + rng.Intn(512)
		want := baselineHits(t, asm, req)
		for _, eng := range engs {
			got, err := eng.Run(asm, req)
			if err != nil {
				t.Logf("%s: %v", eng.Name(), err)
				return false
			}
			if !equalHits(got, want) {
				t.Logf("%s diverged on seed %d (%d vs %d hits)", eng.Name(), seed, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// fuzzCode folds an arbitrary byte onto alphabet, keeping bytes already in it.
func fuzzCode(b byte, alphabet string) byte {
	if strings.IndexByte(alphabet, b) >= 0 {
		return b
	}
	return alphabet[int(b)%len(alphabet)]
}

// fuzzCase derives one search from fuzz bytes: an assembly of at most four
// sequences and 2 kbases over ACGT, soft-masked acgt and N ('>' starts a new
// sequence), an IUPAC scaffold of at most 32 codes, and one to three IUPAC
// guides of its length cut from guides (N-padded when it runs short).
func fuzzCase(bases, pattern, guides []byte, budget uint8, chunk uint16) (*genome.Assembly, *Request) {
	const iupac = "ACGTRYSWKMBDHVN"
	asm := &genome.Assembly{Name: "fuzz"}
	var data []byte
	flush := func() {
		if len(data) > 0 {
			asm.Sequences = append(asm.Sequences, &genome.Sequence{Name: "s" + string(rune('0'+len(asm.Sequences))), Data: data})
			data = nil
		}
	}
	if len(bases) > 2048 {
		bases = bases[:2048]
	}
	for _, b := range bases {
		if b == '>' && len(asm.Sequences) < 3 {
			flush()
			continue
		}
		data = append(data, fuzzCode(b, "ACGTacgtNn"))
	}
	flush()

	if len(pattern) > 32 {
		pattern = pattern[:32]
	}
	plen := len(pattern)
	scaffold := make([]byte, plen)
	for i, b := range pattern {
		scaffold[i] = fuzzCode(b, iupac)
	}
	req := &Request{Pattern: string(scaffold), ChunkBytes: plen + int(chunk)%1024}
	for g := 0; g < 3 && (g == 0 || (g+1)*plen <= len(guides)); g++ {
		guide := bytes.Repeat([]byte{'N'}, plen)
		for i := range guide {
			if j := g*plen + i; j < len(guides) {
				guide[i] = fuzzCode(guides[j], iupac)
			}
		}
		req.Queries = append(req.Queries, Query{Guide: string(guide), MaxMismatches: int(budget % 7)})
	}
	return asm, req
}

// fuzzFaultArm is FuzzEngines' second arm: the simulator engines under a
// seeded fault plan and a resilience policy must still return the baseline's
// hits, publish exactly what LastProfile shows into a fresh registry, and —
// on the one-slot engines, whose backend calls replay exactly — fire the same
// faults when the seed is replayed. In a fleet, which device meets which
// chunk is scheduling, so MultiSYCL runs once. The chunk size is floored so
// that a plan of a thousand one-base chunks does not wait out a watchdog
// deadline per injected hang.
func fuzzFaultArm(t *testing.T, asm *genome.Assembly, req *Request, want []Hit, plan fault.Plan, v kernels.ComparerVariant) {
	faulted := *req
	faulted.ChunkBytes = max(req.ChunkBytes, 256)
	res := &pipeline.Resilience{
		Seed: plan.Seed, Watchdog: 20 * time.Millisecond,
		BackoffBase: time.Microsecond, BackoffMax: time.Microsecond,
	}
	dev := func(slot uint64) *gpu.Device {
		d := gpu.New(device.MI100(), gpu.WithWorkers(2))
		d.SetFaults(fault.NewInjector(fault.Plan{Seed: plan.Seed + slot, Rate: plan.Rate}))
		return d
	}
	for _, tc := range []struct {
		build func(m *obs.Metrics) arenaProfiler
		runs  int
	}{
		{func(m *obs.Metrics) arenaProfiler {
			return &SimCL{Device: dev(0), Variant: v, Resilience: res, Metrics: m}
		}, 2},
		{func(m *obs.Metrics) arenaProfiler {
			return &SimSYCL{Device: dev(0), Variant: v, WorkGroupSize: 64, Resilience: res, Metrics: m}
		}, 2},
		{func(m *obs.Metrics) arenaProfiler {
			return &MultiSYCL{Devices: []*gpu.Device{dev(0), dev(1)}, Variant: v, WorkGroupSize: 64, Resilience: res, Metrics: m}
		}, 1},
	} {
		var first *Profile
		for run := 0; run < tc.runs; run++ {
			m := obs.NewMetrics()
			eng := tc.build(m)
			got, err := eng.Run(asm, &faulted)
			if err != nil {
				t.Fatalf("%s under %+v: %v", eng.Name(), plan, err)
			}
			if !equalHits(got, want) {
				t.Errorf("%s under %+v: %d hits, baseline %d\nrequest %+v", eng.Name(), plan, len(got), len(want), &faulted)
			}
			p := eng.LastProfile()
			requireMetricsAgree(t, m, p)
			if first == nil {
				first = p
				continue
			}
			// A watchdog kill with no injected hang behind it is the machine
			// stalling a real phase past the deadline: correct, but not a
			// function of the seed.
			stalled := first.WatchdogKills != first.Faults[fault.SiteHang] || p.WatchdogKills != p.Faults[fault.SiteHang]
			if !stalled && !(reflect.DeepEqual(p.Faults, first.Faults) && reflect.DeepEqual(p.FaultLog, first.FaultLog)) {
				t.Errorf("%s: replaying %+v fired %v, first run %v", eng.Name(), plan, p.Faults, first.Faults)
			}
		}
	}
}

// FuzzEngines is the cross-engine differential fuzzer: every engine, over
// the FASTA-backed assembly and over its artifact after a codec round trip,
// must return exactly the hits of the naive internal/baseline scan, and so
// must the three reference scans of ref_test.go over the FASTA assembly;
// then the simulator engines again under a fault plan drawn from the same
// bytes (seed from chunk, rate up to 0.3 from budget), with the run's ledger
// in the oracle (fuzzFaultArm). The simulator engines' comparer is drawn
// from budget too, so the corpus walks the whole ladder.
func FuzzEngines(f *testing.F) {
	join := func(asm *genome.Assembly) []byte {
		var seqs [][]byte
		for _, s := range asm.Sequences {
			seqs = append(seqs, s.Data)
		}
		return bytes.Join(seqs, []byte{'>'})
	}
	// The fixed cases of TestEnginesMatchBaseline and of the retired
	// seed-and-extend engine's N/soft-mask test, then N and soft-masked
	// runs around sites on both strands under a degenerate 5' scaffold.
	f.Add(join(testAssemblyTB(f, 11, []int{700, 450, 90, 5}, testSite)), []byte(testPattern), []byte(testGuide), uint8(2), uint16(300-len(testPattern)))
	f.Add(join(testAssemblyTB(f, 41, []int{600}, "gattacagtacgattacagtagg")),
		[]byte("NNNNNNNNNNNNNNNNNNNNNGG"), []byte("GATTACAGTACGATTACAGTANN"), uint8(2), uint16(1000))
	f.Add([]byte("NNNNNNNNTTTAGATTACAnnnnnnnnacgtacgtTGTAATCTAAANNNN>ttttgattacaTTTCGATTRCA"),
		[]byte("TTTVNNNNNNN"), []byte("NNNNGATTACANNNNGRTYACWNNNNSATKMCA"), uint8(1), uint16(5))
	// The plans of TestMetricsAgreeWithProfile (seed 1234, rate 0.3) and
	// TestMultiSYCLSchedMetricsParity (seed 50, rate 0.2) over their
	// assemblies, two mismatches each.
	f.Add(join(testAssemblyTB(f, 7, []int{600, 300}, testSite)), []byte(testPattern), []byte(testGuide), uint8(36*7+2), uint16(1234))
	f.Add(join(testAssemblyTB(f, 25, []int{900, 600, 400}, testSite)), []byte(testPattern), []byte(testGuide), uint8(24*7+2), uint16(50))
	f.Fuzz(func(t *testing.T, bases, pattern, guides []byte, budget uint8, chunk uint16) {
		asm, req := fuzzCase(bases, pattern, guides, budget, chunk)
		if len(asm.Sequences) == 0 || len(req.Pattern) == 0 {
			return
		}
		want := baselineHits(t, asm, req)
		art, err := BuildArtifact(asm, req.Pattern)
		if err != nil {
			t.Fatalf("BuildArtifact: %v", err)
		}
		if art, err = genome.ReadArtifact(art.Encode()); err != nil {
			t.Fatalf("ReadArtifact: %v", err)
		}
		v := kernels.Variants()[int(budget)%5]
		type input struct {
			name string
			asm  *genome.Assembly
		}
		both := []input{{"FASTA", asm}, {"artifact", art.Assembly()}}
		for _, tc := range []struct {
			eng Engine
			in  []input
		}{
			{&CPU{Workers: 4}, both},
			{&SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Variant: v}, both},
			{&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: v, WorkGroupSize: 64}, both},
			{&MultiSYCL{Devices: []*gpu.Device{
				gpu.New(device.MI60(), gpu.WithWorkers(2)),
				gpu.New(device.MI100(), gpu.WithWorkers(2)),
			}, Variant: v, WorkGroupSize: 64}, both},
			{&refCPU{Workers: 2, Arm: refBytes}, both[:1]},
			{&refCPU{Workers: 2, Arm: refScalar}, both[:1]},
			{&refCPU{Workers: 2, Arm: refNoBatch}, both[:1]},
		} {
			for _, in := range tc.in {
				got, err := tc.eng.Run(in.asm, req)
				if err != nil {
					t.Fatalf("%T %s on %s: %v", tc.eng, v, in.name, err)
				}
				if !equalHits(got, want) {
					t.Errorf("%T %s on %s: %d hits, baseline %d\nrequest %+v", tc.eng, v, in.name, len(got), len(want), req)
				}
			}
		}
		fuzzFaultArm(t, asm, req, want, fault.Plan{Seed: uint64(chunk), Rate: float64(budget/7) / 120}, v)
	})
}

// TestOpenCLAndSYCLIdentical is the migration-correctness claim of the
// paper: the two frontends drive identical kernels and must agree exactly,
// for every comparer variant.
func TestOpenCLAndSYCLIdentical(t *testing.T) {
	asm := testAssembly(t, 21, []int{900}, testSite)
	req := testRequest(3)
	dev := gpu.New(device.RadeonVII(), gpu.WithWorkers(4))
	for _, v := range kernels.Variants() {
		cl := &SimCL{Device: dev, Variant: v}
		sy := &SimSYCL{Device: dev, Variant: v, WorkGroupSize: 64}
		clHits, err := cl.Run(asm, req)
		if err != nil {
			t.Fatalf("opencl %s: %v", v, err)
		}
		syHits, err := sy.Run(asm, req)
		if err != nil {
			t.Fatalf("sycl %s: %v", v, err)
		}
		if !equalHits(clHits, syHits) {
			t.Errorf("variant %s: OpenCL and SYCL engines disagree (%d vs %d hits)", v, len(clHits), len(syHits))
		}
	}
}

func TestMultiQuery(t *testing.T) {
	asm := testAssembly(t, 5, []int{800}, testSite)
	req := &Request{
		Pattern: testPattern,
		Queries: []Query{
			{Guide: testGuide, MaxMismatches: 1},
			{Guide: "GATTACAGTANN", MaxMismatches: 3},
			{Guide: "CCCCCCCCCCNN", MaxMismatches: 0},
		},
		ChunkBytes: 256,
	}
	want := baselineHits(t, asm, req)
	for _, eng := range engines(t) {
		got, err := eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !equalHits(got, want) {
			t.Errorf("%s: multi-query hits diverge (%d vs %d)", eng.Name(), len(got), len(want))
		}
	}
	// Query 1 (looser threshold) must dominate query 0's hit set.
	counts := map[int]int{}
	for _, h := range want {
		counts[h.QueryIndex]++
	}
	if counts[1] < counts[0] {
		t.Errorf("looser threshold found fewer hits: %v", counts)
	}
}

func TestRequestValidation(t *testing.T) {
	asm := testAssembly(t, 1, []int{100}, testSite)
	eng := &CPU{}
	tests := []struct {
		name string
		req  Request
	}{
		{"empty pattern", Request{Queries: []Query{{Guide: "NN", MaxMismatches: 0}}}},
		{"no queries", Request{Pattern: "NGG"}},
		{"length mismatch", Request{Pattern: "NGG", Queries: []Query{{Guide: "ACGT"}}}},
		{"bad pattern code", Request{Pattern: "NG!", Queries: []Query{{Guide: "ACN"}}}},
		{"bad guide code", Request{Pattern: "NGG", Queries: []Query{{Guide: "A!N"}}}},
		{"negative mm", Request{Pattern: "NGG", Queries: []Query{{Guide: "ACN", MaxMismatches: -1}}}},
		{"negative chunk", Request{Pattern: "NGG", Queries: []Query{{Guide: "ACN"}}, ChunkBytes: -5}},
		{"chunk over the limit", Request{Pattern: "NGG", Queries: []Query{{Guide: "ACN"}}, ChunkBytes: pipeline.MaxChunkBytes + 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := eng.Run(asm, &tt.req); err == nil {
				t.Error("invalid request accepted")
			}
		})
	}
}

func TestProfileCollection(t *testing.T) {
	asm := testAssembly(t, 33, []int{1200}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 400
	eng := &SimSYCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}
	if eng.LastProfile() != nil {
		t.Error("profile before run should be nil")
	}
	if _, err := eng.Run(asm, req); err != nil {
		t.Fatal(err)
	}
	p := eng.LastProfile()
	if p == nil {
		t.Fatal("no profile collected")
	}
	if p.Chunks < 3 {
		t.Errorf("chunks = %d, want several", p.Chunks)
	}
	finder, ok := p.Kernels["finder"]
	if !ok {
		t.Fatal("finder not profiled")
	}
	comparer, ok := p.Kernels["comparer"]
	if !ok {
		t.Fatalf("comparer not profiled (have %v)", p.KernelNames())
	}
	if finder.WorkItems == 0 || comparer.WorkItems == 0 {
		t.Error("kernel stats empty")
	}
	if p.Launches["finder"] != p.Chunks {
		t.Errorf("finder launches %d != chunks %d", p.Launches["finder"], p.Chunks)
	}
	if p.BytesStaged <= genome.Compose(asm).TotalBases {
		t.Errorf("BytesStaged = %d, should exceed genome size", p.BytesStaged)
	}
	if p.CandidateSites == 0 || p.Entries == 0 {
		t.Error("pipeline counters empty")
	}
	if p.WorkGroupSizes["comparer"] != 64 {
		t.Errorf("comparer wg size = %d", p.WorkGroupSizes["comparer"])
	}
}

// TestHotspotProfile reproduces the profiling observation of §IV.B: the
// comparer accounts for the vast majority of kernel memory traffic when
// enough guides are compared.
func TestHotspotProfile(t *testing.T) {
	asm := testAssembly(t, 44, []int{4000}, testSite)
	req := &Request{
		Pattern:    testPattern,
		ChunkBytes: 2000,
		Queries: []Query{
			{Guide: testGuide, MaxMismatches: 6},
			{Guide: "GATTACAGTCNN", MaxMismatches: 6},
			{Guide: "TTTTACAGTANN", MaxMismatches: 6},
			{Guide: "GACCACAGTANN", MaxMismatches: 6},
		},
	}
	eng := &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}
	if _, err := eng.Run(asm, req); err != nil {
		t.Fatal(err)
	}
	p := eng.LastProfile()
	comp := p.Kernels["comparer"]
	finder := p.Kernels["finder"]
	if comp.WorkItems == 0 {
		t.Fatal("comparer did not run")
	}
	// With 4 guides, comparer launches must outnumber finder launches 4:1.
	if p.Launches["comparer"] != 4*p.Launches["finder"] {
		t.Errorf("comparer launches %d, finder %d", p.Launches["comparer"], p.Launches["finder"])
	}
	_ = finder
}

func TestHitString(t *testing.T) {
	h := Hit{QueryIndex: 2, SeqName: "chr7", Pos: 123, Dir: '+', Mismatches: 3, Site: "GATtACAGG"}
	s := h.String()
	for _, part := range []string{"chr7", "123", "GATtACAGG", "+", "3"} {
		if !strings.Contains(s, part) {
			t.Errorf("Hit.String() = %q missing %q", s, part)
		}
	}
}

func TestRenderSite(t *testing.T) {
	g, err := kernels.NewPatternPair([]byte("GATTACANN"))
	if err != nil {
		t.Fatal(err)
	}
	// Forward, one mismatch at position 3 (T->G).
	site := renderSite([]byte("GATGACATGG"[:9]), g, kernels.DirForward)
	if site != "GATgACATG" {
		t.Errorf("forward site = %q, want GATgACATG", site)
	}
	// Reverse: the genomic window is the reverse complement of a perfect
	// site; rendering must return the guide orientation, uppercase.
	window := genome.ReverseComplemented([]byte("GATTACATGG"[:9]))
	site = renderSite(window, g, kernels.DirReverse)
	if site != "GATTACATG" {
		t.Errorf("reverse site = %q, want GATTACATG", site)
	}
}

func TestEngineNames(t *testing.T) {
	if (&CPU{}).Name() != "cpu" {
		t.Error("cpu name")
	}
	if (&SimCL{}).Name() != "opencl-sim" {
		t.Error("opencl name")
	}
	if (&SimSYCL{}).Name() != "sycl-sim" {
		t.Error("sycl name")
	}
}

func TestNilDeviceErrors(t *testing.T) {
	asm := testAssembly(t, 1, []int{100}, testSite)
	req := testRequest(0)
	if _, err := (&SimCL{}).Run(asm, req); err == nil {
		t.Error("SimCL with nil device accepted")
	}
	if _, err := (&SimSYCL{}).Run(asm, req); err == nil {
		t.Error("SimSYCL with nil device accepted")
	}
}

// TestPackedEngineEquivalence: the engine's 2-bit packed scan returns
// byte-identical results to the reference byte path, including sites, on
// randomized genomes with soft masking and Ns.
func TestPackedEngineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		asm := testAssembly(t, seed, []int{300 + rng.Intn(500)}, testSite)
		req := testRequest(rng.Intn(4))
		req.ChunkBytes = 100 + rng.Intn(400)
		plain, err := (&refCPU{Workers: 2, Arm: refBytes}).Run(asm, req)
		if err != nil {
			return false
		}
		packed, err := (&CPU{Workers: 2}).Run(asm, req)
		if err != nil {
			return false
		}
		return equalHits(plain, packed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPackedEngineAmbiguityCodes: rare IUPAC codes in the genome collapse
// to unknown in the packed format; both paths must treat them as matching
// only a pattern N.
func TestPackedEngineAmbiguityCodes(t *testing.T) {
	asm := &genome.Assembly{Name: "amb", Sequences: []*genome.Sequence{
		{Name: "s", Data: []byte("ACCGATTRCAGGTTTGATTACAGG")},
	}}
	req := &Request{
		Pattern:    "NNNNNNNGG",
		Queries:    []Query{{Guide: "GATTACANN", MaxMismatches: 1}},
		ChunkBytes: 64,
	}
	plain, err := (&refCPU{Arm: refBytes}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := (&CPU{}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 {
		t.Fatal("expected hits")
	}
	if !equalHits(plain, packed) {
		t.Errorf("ambiguity handling diverges: %+v vs %+v", plain, packed)
	}
}
