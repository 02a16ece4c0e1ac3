package tune

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/isa"
	"casoffinder/internal/kernels"
)

// TestSelectDeterministic: same spec and shape, same decision — from
// repeated calls and from goroutines scoring at once over the shared kernel
// cache (engines may open concurrently).
func TestSelectDeterministic(t *testing.T) {
	for _, spec := range device.All() {
		cfg := Config{Spec: spec}
		a, err := Select(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := Select(cfg)
				if err != nil {
					t.Errorf("%s: %v", spec.Name, err)
				} else if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: repeated Select diverged:\n%+v\n%+v", spec.Name, a, b)
				}
			}()
		}
		wg.Wait()
	}
}

// TestSelectCacheIsolation: mutating a returned decision must not reach
// the next one.
func TestSelectCacheIsolation(t *testing.T) {
	cfg := Config{Spec: device.MI60()}
	a, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Variant = kernels.Base
	a.Candidates[0].Predicted = -1
	b, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Candidates[0].Predicted <= 0 || b.Variant == kernels.Base && a.WGSize != b.WGSize {
		t.Error("cached decision was mutated through a returned copy")
	}
}

// TestSelectMatchesExtendedTableX: on every device of Table VII the
// decision must be consistent with the Table X occupancy story — at any
// fixed work-group size, a variant with more waves per SIMD (and the same
// synthetic traffic) never scores worse than one with fewer, so the winner
// carries the table's maximum occupancy and a cooperative fetch, and the
// register-heavy opt4 row never wins (the Fig. 2 regression, reproduced as
// a selection).
func TestSelectMatchesExtendedTableX(t *testing.T) {
	for _, spec := range device.All() {
		d, err := Select(Config{Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if d.Device != spec.Name {
			t.Errorf("decision device %q, want %q", d.Device, spec.Name)
		}
		maxOcc := 0
		for _, c := range d.Candidates {
			if c.Occupancy > maxOcc {
				maxOcc = c.Occupancy
			}
		}
		best := d.Candidates[0]
		if best.Variant != d.Variant || best.WGSize != d.WGSize {
			t.Fatalf("%s: decision (%s, %d) is not the top candidate (%s, %d)",
				spec.Name, d.Variant, d.WGSize, best.Variant, best.WGSize)
		}
		if best.Occupancy != maxOcc {
			t.Errorf("%s: winner occupancy %d below the table maximum %d",
				spec.Name, best.Occupancy, maxOcc)
		}
		if !d.Variant.CooperativeFetch() {
			t.Errorf("%s: winner %s still stages through the group leader", spec.Name, d.Variant)
		}
		if d.Variant == kernels.Opt4 {
			t.Errorf("%s: register-pressure-penalised %s won", spec.Name, d.Variant)
		}
		// Pairwise: higher Table X occupancy at the same WG size never
		// predicts slower.
		cfg := Config{Spec: spec}
		rows := isa.TableX(spec, 23)
		for _, wg := range DefaultWGSizes() {
			for _, u := range rows {
				for _, v := range rows {
					u, v := u.Variant, v.Variant
					uo := isa.ComparerMetricsAt(u, spec, 23, wg).Occupancy
					vo := isa.ComparerMetricsAt(v, spec, 23, wg).Occupancy
					if uo > vo && predict(cfg, u, wg) >= predict(cfg, v, wg) {
						t.Errorf("%s wg=%d: %s (occ %d) not predicted faster than %s (occ %d)",
							spec.Name, wg, u, uo, v, vo)
					}
				}
			}
		}
	}
}

// TestSelectRanksSorted: candidates come back best-first.
func TestSelectRanksSorted(t *testing.T) {
	d, err := Select(Config{Spec: device.RadeonVII()})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kernels.Variants()) * len(DefaultWGSizes()); len(d.Candidates) != want {
		t.Fatalf("scored %d candidates, want %d", len(d.Candidates), want)
	}
	for i := 1; i < len(d.Candidates); i++ {
		if d.Candidates[i].Predicted < d.Candidates[i-1].Predicted {
			t.Fatalf("candidates not sorted at %d: %.6g < %.6g",
				i, d.Candidates[i].Predicted, d.Candidates[i-1].Predicted)
		}
	}
}

// predict returns the model-predicted seconds per chunk for one fixed
// (variant, WG size) under cfg: the tuner's scoring function, for the
// fixed-variant baselines these tests compare against.
func predict(cfg Config, v kernels.ComparerVariant, wg int) float64 {
	n, err := normalize(cfg)
	if err != nil {
		return 0
	}
	return Estimate(n.spec, v, wg, n.plen, n.queries).Seconds(n.chunkBytes)
}

// TestPredictMatchesCandidates: the fixed-variant scoring function agrees
// with what Select recorded.
func TestPredictMatchesCandidates(t *testing.T) {
	cfg := Config{Spec: device.MI100()}
	d, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Candidates {
		if got := predict(cfg, c.Variant, c.WGSize); got != c.Predicted {
			t.Errorf("predict(%s, %d) = %.9g, candidate recorded %.9g", c.Variant, c.WGSize, got, c.Predicted)
		}
	}
}

// TestSelectWithinBestFixed: the tuner's pick must score within 5% of the
// best fixed (variant, WG) pair on every device — exact, since the pick is
// the argmin of the same predictions.
func TestSelectWithinBestFixed(t *testing.T) {
	for _, spec := range device.All() {
		d, err := Select(Config{Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		best := d.Candidates[0].Predicted
		for _, c := range d.Candidates {
			if c.Predicted < best {
				best = c.Predicted
			}
		}
		if d.Predicted > best*1.05 {
			t.Errorf("%s: selected %.6gs, best fixed %.6gs (>5%% off)", spec.Name, d.Predicted, best)
		}
	}
}

// TestSelectPinsDecision names what the tuner picks today, so a model change
// (ROADMAP item 4) shows its diff: every Table VII device at 1-3 guides
// selects opt3 at 512-item groups from the 5x4 field, and opt4's register
// pressure ranks its four candidates last — Fig. 2's opt4 regression as the
// occupancy model sees it.
func TestSelectPinsDecision(t *testing.T) {
	for _, spec := range device.All() {
		for queries := 1; queries <= 3; queries++ {
			d, err := Select(Config{Spec: spec, Queries: queries})
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if d.Variant != kernels.Opt3 || d.WGSize != 512 {
				t.Errorf("%s, %d guides: selected %s wg=%d, want opt3 wg=512", spec.Name, queries, d.Variant, d.WGSize)
			}
			if len(d.Candidates) != 20 {
				t.Fatalf("%s, %d guides: %d candidates scored, want 20", spec.Name, queries, len(d.Candidates))
			}
			for i, c := range d.Candidates {
				if last := i >= 16; last != (c.Variant == kernels.Opt4) {
					t.Errorf("%s, %d guides: rank %d is %s wg=%d; opt4 belongs in exactly the last four places",
						spec.Name, queries, i+1, c.Variant, c.WGSize)
				}
			}
		}
	}
}

// TestSelectKeepsNoRequestState: in the daemon every Config field but the
// spec comes from a request body, so scoring must leave nothing behind that
// a request keys — no retained decision, no metrics row, no compilation.
// The bound is per shape (≈100 B, the live heap otherwise moves by bytes):
// the isa metrics rows plus decisions once memoized per shape grow ≈10 KB a
// shape and a decision memo alone ≈0.8 KB, so 2 000 shapes catch either.
// isa's TestCompileMemoized counts compilations behind the metrics entry
// points Select calls; here the cached programs must be the same ones
// before and after.
func TestSelectKeepsNoRequestState(t *testing.T) {
	const shapes, perShape = 2000, 100
	spec := device.MI100()
	if _, err := Select(Config{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	programs := func() []*isa.Program {
		ps := []*isa.Program{isa.CompileFinder()}
		for _, v := range kernels.Variants() {
			ps = append(ps, isa.CompileComparer(v))
		}
		return ps
	}
	compiled, before := programs(), live()
	for i := 0; i < shapes; i++ {
		if _, err := Select(Config{Spec: spec, PatternLen: 1 + i, Queries: 1 + i, ChunkBytes: 1 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if after := live(); after > before+shapes*perShape {
		t.Errorf("%d distinct request shapes grew the live heap by %d bytes", shapes, after-before)
	}
	if !slices.Equal(programs(), compiled) {
		t.Error("request shapes replaced a cached kernel program")
	}
}

// TestSelectConfigErrors covers the rejection paths.
func TestSelectConfigErrors(t *testing.T) {
	if _, err := Select(Config{}); err == nil {
		t.Error("empty spec accepted")
	}
	spec := device.MI60()
	spec.MaxWorkGroupSize = 32
	if _, err := Select(Config{Spec: spec}); err == nil {
		t.Error("a device that fits no scored work-group size should leave nothing to score")
	}
}

// TestSelectRespectsMaxWorkGroup: oversized candidate group sizes are
// skipped, not scored.
func TestSelectRespectsMaxWorkGroup(t *testing.T) {
	spec := device.MI60()
	spec.MaxWorkGroupSize = 128
	d, err := Select(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Candidates {
		if c.WGSize > 128 {
			t.Errorf("candidate wg=%d beyond the device's 128 limit", c.WGSize)
		}
	}
}
