package bench

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// testScale keeps the functional runs small; every reproduced quantity is a
// ratio, so shapes are stable across scales.
const testScale = 1 << 17

func TestWorkloads(t *testing.T) {
	wls := Workloads(testScale)
	if len(wls) != 2 || wls[0].Name != "hg19" || wls[1].Name != "hg38" {
		t.Fatalf("Workloads = %+v", wls)
	}
	for _, wl := range wls {
		if err := wl.Request.Validate(); err != nil {
			t.Errorf("%s request invalid: %v", wl.Name, err)
		}
		if wl.Profile.TotalBases != testScale {
			t.Errorf("%s scale = %d", wl.Name, wl.Profile.TotalBases)
		}
	}
	if Workloads(testScale)[1].Profile.FullScaleBases <= Workloads(testScale)[0].Profile.FullScaleBases {
		t.Error("hg38 full scale should exceed hg19")
	}
}

func TestMeasureBasics(t *testing.T) {
	m, err := Measure(device.MI60(), SYCL, kernels.Base, HG19Workload(testScale))
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if m.ElapsedSeconds() <= 0 || m.ComparerSeconds <= 0 || m.FinderSeconds <= 0 || m.HostSeconds <= 0 {
		t.Fatalf("non-positive components: %+v", m)
	}
	if m.KernelSeconds() != m.FinderSeconds+m.ComparerSeconds {
		t.Error("KernelSeconds composition wrong")
	}
	// §IV.B: kernels are 50-80% of elapsed...
	frac := m.KernelSeconds() / m.ElapsedSeconds()
	if frac < 0.45 || frac > 0.85 {
		t.Errorf("kernel fraction of elapsed = %.2f, want ~0.5-0.8", frac)
	}
	// ...and the comparer dominates kernel time (~98% in the paper).
	if cf := m.ComparerSeconds / m.KernelSeconds(); cf < 0.85 {
		t.Errorf("comparer fraction of kernel time = %.2f, want >= 0.85", cf)
	}
}

func TestMeasureUnknownAPI(t *testing.T) {
	if _, err := Measure(device.MI60(), API("CUDA"), kernels.Base, HG19Workload(testScale)); err == nil {
		t.Error("unknown API accepted")
	}
}

// TestRunDeviceIndependent proves the fact run-once-project-many rests on:
// a functional run's hits and whole Profile are the same on every Table VII
// device, for both datasets, both APIs, every variant and the work-group
// sweep's forced sizes. A device that chose a different local size, chunking
// or arena would fail here before it could skew a projected table.
func TestRunDeviceIndependent(t *testing.T) {
	var arms []Arm
	for _, api := range []API{OpenCL, SYCL} {
		for _, v := range kernels.Variants() {
			arms = append(arms, Arm{API: api, Variant: v})
		}
	}
	arms = append(arms, Arm{API: SYCL, Variant: kernels.Base, WorkGroupSize: 64}, Arm{API: SYCL, Variant: kernels.Base, WorkGroupSize: 512})
	for _, wl := range Workloads(testScale) {
		asm, err := genome.Generate(wl.Profile)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range arms {
			var want *Counters
			for _, spec := range device.All() {
				c, err := Run(asm, arm, wl, []device.Spec{spec})
				if err != nil {
					t.Fatalf("%s %+v on %s: %v", wl.Name, arm, spec.Name, err)
				}
				if want == nil {
					want = c
					continue
				}
				if c.Hits != want.Hits {
					t.Errorf("%s %+v: %s found %d hits, %s %d", wl.Name, arm, spec.Name, c.Hits, device.All()[0].Name, want.Hits)
				}
				if !reflect.DeepEqual(c.Profile, want.Profile) {
					t.Errorf("%s %+v: profile on %s differs from %s:\n got %+v\nwant %+v",
						wl.Name, arm, spec.Name, device.All()[0].Name, c.Profile, want.Profile)
				}
			}
			// A forced size is the size the comparer ran at, which is what
			// Project prices the sweep with.
			if arm.WorkGroupSize == 0 {
				continue
			}
			for name, wg := range want.Profile.WorkGroupSizes {
				if name != "finder" && wg != arm.WorkGroupSize {
					t.Errorf("%s %+v: %s ran at work-group size %d", wl.Name, arm, name, wg)
				}
			}
		}
	}
}

// TestProjectRefusesTighterDevice: counters checked under the Table VII
// limits price on every Table VII device, but a device that would have
// refused the SYCL program's 256-item groups is a *LimitError, not a number.
func TestProjectRefusesTighterDevice(t *testing.T) {
	wl := HG19Workload(testScale)
	cs, err := RunDataset(wl, Arm{API: SYCL, Variant: kernels.Base})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range device.All() {
		if _, err := Project(cs[0], spec); err != nil {
			t.Errorf("Project on %s: %v", spec.Name, err)
		}
	}
	narrow := device.MI100()
	narrow.MaxWorkGroupSize = 128
	_, err = Project(cs[0], narrow)
	var le *LimitError
	if !errors.As(err, &le) || le.Device != "MI100" || le.Spec.MaxWorkGroupSize != 128 || le.Run.MaxWorkGroupSize != 1024 {
		t.Fatalf("Project on MI100 with 128-item groups: err %v, want a *LimitError", err)
	}
	// The per-cell path refuses it too: the run itself fails its launches.
	if _, err := Measure(narrow, SYCL, kernels.Base, wl); err == nil {
		t.Error("Measure ran 256-item groups on a device capped at 128")
	}
}

// TestTable8Shape pins the Table VIII reproduction: SYCL at least matches
// OpenCL everywhere, with speedups inside the paper's [1.00, 1.19] band
// (plus slack), and hg38 slower than hg19 on every device.
func TestTable8Shape(t *testing.T) {
	rows, err := Table8(testScale)
	if err != nil {
		t.Fatalf("Table8: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	elapsed := map[string]float64{}
	for _, r := range rows {
		sp := r.Speedup()
		if sp < 1.0 || sp > 1.25 {
			t.Errorf("%s/%s: speedup %.2f outside [1.00, 1.25]", r.Dataset, r.Device, sp)
		}
		if r.OpenCL <= 0 || r.SYCL <= 0 {
			t.Errorf("%s/%s: non-positive elapsed", r.Dataset, r.Device)
		}
		elapsed[r.Dataset+"/"+r.Device] = r.SYCL
	}
	for _, dev := range []string{"RVII", "MI60", "MI100"} {
		if elapsed["hg38/"+dev] <= elapsed["hg19/"+dev] {
			t.Errorf("%s: hg38 (%.1f) should be slower than hg19 (%.1f)",
				dev, elapsed["hg38/"+dev], elapsed["hg19/"+dev])
		}
	}
	// MI100 is the fastest device in the paper's Table VIII.
	if elapsed["hg19/MI100"] >= elapsed["hg19/RVII"] {
		t.Error("MI100 should beat RVII")
	}
}

// TestTable9Shape pins Table IX: the opt3 kernel cuts elapsed time by a
// speedup inside the paper's [1.09, 1.23] band (plus slack).
func TestTable9Shape(t *testing.T) {
	rows, err := Table9(testScale)
	if err != nil {
		t.Fatalf("Table9: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		sp := r.Speedup()
		if sp < 1.05 || sp > 1.3 {
			t.Errorf("%s/%s: opt speedup %.2f outside [1.05, 1.30]", r.Dataset, r.Device, sp)
		}
	}
}

// TestFig2Shape pins the optimization staircase of Fig. 2: kernel time
// falls monotonically from base to opt3 (cumulative 15-35% as in the
// paper's 21-28%), then opt4 regresses to ~2x opt3 despite its shorter
// code, driven by the occupancy loss.
func TestFig2Shape(t *testing.T) {
	points, err := Fig2(testScale)
	if err != nil {
		t.Fatalf("Fig2: %v", err)
	}
	if len(points) != 2*3*5 {
		t.Fatalf("got %d points, want 30", len(points))
	}
	byGroup := map[string]map[kernels.ComparerVariant]float64{}
	for _, p := range points {
		key := p.Dataset + "/" + p.Device
		if byGroup[key] == nil {
			byGroup[key] = map[kernels.ComparerVariant]float64{}
		}
		byGroup[key][p.Variant] = p.Seconds
	}
	for key, g := range byGroup {
		if !(g[kernels.Base] > g[kernels.Opt1] && g[kernels.Opt1] > g[kernels.Opt2] && g[kernels.Opt2] > g[kernels.Opt3]) {
			t.Errorf("%s: staircase not monotone: base=%.2f opt1=%.2f opt2=%.2f opt3=%.2f",
				key, g[kernels.Base], g[kernels.Opt1], g[kernels.Opt2], g[kernels.Opt3])
		}
		cut := 1 - g[kernels.Opt3]/g[kernels.Base]
		if cut < 0.15 || cut > 0.35 {
			t.Errorf("%s: base->opt3 reduction %.1f%%, paper reports 21-28%%", key, cut*100)
		}
		reg := g[kernels.Opt4] / g[kernels.Opt3]
		if reg < 1.5 || reg > 2.5 {
			t.Errorf("%s: opt4 regression %.2fx, want ~2x", key, reg)
		}
	}
}

func TestRenderers(t *testing.T) {
	t1 := RenderTable1()
	if !strings.Contains(t1, "OpenCL (13) vs SYCL (8)") {
		t.Errorf("Table I header wrong:\n%s", t1)
	}
	t7 := RenderTable7()
	for _, part := range []string{"RVII", "MI60", "MI100", "1228"} {
		if !strings.Contains(t7, part) {
			t.Errorf("Table VII missing %q", part)
		}
	}
	t10 := RenderTable10(device.MI100(), len(ExamplePattern))
	for _, part := range []string{"Code length", "#SGPRs", "#VGPRs", "Occupancy", "opt4"} {
		if !strings.Contains(t10, part) {
			t.Errorf("Table X missing %q", part)
		}
	}
	rows, err := Table8(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderTable8(rows); !strings.Contains(s, "speedup") {
		t.Error("Table VIII render missing speedup column")
	}
	rows9, err := Table9(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderTable9(rows9); !strings.Contains(s, "opt") {
		t.Error("Table IX render missing opt column")
	}
	points, err := Fig2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderFig2(points); !strings.Contains(s, "base") || !strings.Contains(s, "#") {
		t.Error("Fig2 render missing bars")
	}
}

func TestFullScaleChunks(t *testing.T) {
	n, err := fullScaleChunks(HG19Workload(testScale).Profile, len(ExamplePattern))
	if err != nil {
		t.Fatalf("fullScaleChunks: %v", err)
	}
	// ~3.1 GB in 512 MB chunks across 24 chromosomes: a handful of chunks,
	// far fewer than a linear projection of the scaled run would claim.
	if n < 6 || n > 40 {
		t.Errorf("full-scale chunks = %d, want O(10)", n)
	}
}

// TestHotspotShape pins the §IV.B profiling claims: the comparer dominates
// kernel time and the kernels dominate elapsed time.
func TestHotspotShape(t *testing.T) {
	rows, err := Hotspot(testScale)
	if err != nil {
		t.Fatalf("Hotspot: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if share := r.ComparerShareOfKernels(); share < 0.85 {
			t.Errorf("%s/%s: comparer share of kernel time %.2f, want >= 0.85 (paper ~0.98)",
				r.Dataset, r.Device, share)
		}
		if share := r.KernelShareOfElapsed(); share < 0.45 || share > 0.85 {
			t.Errorf("%s/%s: kernel share of elapsed %.2f, paper reports 0.5-0.8",
				r.Dataset, r.Device, share)
		}
	}
	if s := RenderHotspot(rows); !strings.Contains(s, "cmp/kernels") {
		t.Error("render missing header")
	}
}

// TestWGSweepShape: larger work-groups amortise the leader staging, so the
// comparer gets monotonically faster from 64 to 512 items per group.
func TestWGSweepShape(t *testing.T) {
	points, err := WGSweep(testScale, []int{64, 256})
	if err != nil {
		t.Fatalf("WGSweep: %v", err)
	}
	byDevice := map[string]map[int]float64{}
	for _, p := range points {
		if byDevice[p.Device] == nil {
			byDevice[p.Device] = map[int]float64{}
		}
		byDevice[p.Device][p.WorkGroupSize] = p.Seconds
	}
	for dev, m := range byDevice {
		if m[256] >= m[64] {
			t.Errorf("%s: wg 256 (%.2f) should beat wg 64 (%.2f)", dev, m[256], m[64])
		}
	}
	if s := RenderWGSweep(points); !strings.Contains(s, "WG") {
		t.Error("render missing header")
	}
}

// TestChunkSweepShape: host time falls (weakly) with larger chunks and the
// chunk count floors at one per chromosome.
func TestChunkSweepShape(t *testing.T) {
	points, err := ChunkSweep([]int64{1 << 20, 64 << 20, 2 << 30})
	if err != nil {
		t.Fatalf("ChunkSweep: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Chunks > points[i-1].Chunks {
			t.Error("chunk count should not grow with larger chunks")
		}
		if points[i].HostSeconds > points[i-1].HostSeconds+1e-9 {
			t.Error("host time should not grow with larger chunks")
		}
	}
	if points[2].Chunks < 24 {
		t.Errorf("chunk floor = %d, want >= one per chromosome", points[2].Chunks)
	}
	if s := RenderChunkSweep(points); !strings.Contains(s, "chunk bytes") {
		t.Error("render missing header")
	}
}

func TestRenderMigrationTables(t *testing.T) {
	s := RenderMigrationTables()
	for _, part := range []string{
		"Table II", "Table III", "Table IV", "Table V", "Table VI",
		"clCreateBuffer", "NewBufferFrom", "atomic_ref", "parallel_for",
		"Kernel.SetArg", "Handler.ParallelFor",
	} {
		if !strings.Contains(s, part) {
			t.Errorf("migration tables missing %q", part)
		}
	}
}

func TestCSVWriters(t *testing.T) {
	rows8 := []Table8Row{{Dataset: "hg19", Device: "RVII", OpenCL: 54, SYCL: 48}}
	var b strings.Builder
	if err := WriteTable8CSV(&b, rows8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hg19,RVII,54.000,48.000,1.125") {
		t.Errorf("table8 csv = %q", b.String())
	}
	rows9 := []Table9Row{{Dataset: "hg38", Device: "MI60", Base: 63, Opt: 57}}
	b.Reset()
	if err := WriteTable9CSV(&b, rows9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hg38,MI60,63.000,57.000,1.105") {
		t.Errorf("table9 csv = %q", b.String())
	}
	points := []Fig2Point{{Dataset: "hg19", Device: "MI100", Variant: kernels.Opt4, Seconds: 21.1}}
	b.Reset()
	if err := WriteFig2CSV(&b, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hg19,MI100,opt4,21.100") {
		t.Errorf("fig2 csv = %q", b.String())
	}
}
