package search

import (
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/tune"
)

// tuneConfigFor mirrors what autotuneDecision builds for a test request, so
// tests can ask the tune package what the engines should have selected.
func tuneConfigFor(spec device.Spec, req *Request) tune.Config {
	return tune.Config{
		Spec:       spec,
		PatternLen: len(req.Pattern),
		Queries:    len(req.Queries),
		ChunkBytes: req.ChunkBytes,
	}
}

// TestAutoMatchesFixedVariantHits: engines under -variant auto emit exactly
// the reference hit stream — the tuner changes which kernel runs, never what
// it computes — and the profile records the decision the tune package made
// for the device. A configured Variant or WorkGroupSize is ignored under
// Auto: the launch runs at the tuner's size.
func TestAutoMatchesFixedVariantHits(t *testing.T) {
	asm := testAssembly(t, 11, []int{700, 450, 90, 5}, testSite)
	req := testRequest(2)
	want := baselineHits(t, asm, req)
	if len(want) == 0 {
		t.Fatal("reference produced no hits; test data is too sparse")
	}
	for _, eng := range []Engine{
		&SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Auto: true},
		&SimSYCL{Device: gpu.New(device.RadeonVII(), gpu.WithWorkers(4)), Auto: true, Variant: kernels.Opt4, WorkGroupSize: 64},
	} {
		got, err := eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !equalHits(got, want) {
			t.Errorf("%s: auto run diverged from reference (%d hits != %d)", eng.Name(), len(got), len(want))
		}
		p := eng.(Profiler).LastProfile()
		if p == nil {
			t.Fatalf("%s: no profile", eng.Name())
		}
		if p.Tune == nil || p.Tune.WGSize == 0 || len(p.Tune.Candidates) == 0 {
			t.Fatalf("%s: tuned decision not recorded: %+v", eng.Name(), p.Tune)
		}
		var spec device.Spec
		switch e := eng.(type) {
		case *SimCL:
			spec = e.Device.Spec()
		case *SimSYCL:
			spec = e.Device.Spec()
		}
		d, err := tune.Select(tuneConfigFor(spec, req))
		if err != nil {
			t.Fatal(err)
		}
		if p.Tune.Variant != d.Variant || p.Tune.WGSize != d.WGSize {
			t.Errorf("%s: profile records (%s, %d), tuner decides (%s, %d)",
				eng.Name(), p.Tune.Variant, p.Tune.WGSize, d.Variant, d.WGSize)
		}
		// The launched comparer really is the tuned one: its kernel name is
		// profiled at the tuned local size.
		name := "comparer_" + p.Tune.Variant.String()
		if p.Launches[name] == 0 {
			t.Errorf("%s: no launches of tuned kernel %q; profiled %v", eng.Name(), name, p.KernelNames())
		}
		if got := p.WorkGroupSizes[name]; got != d.WGSize {
			t.Errorf("%s: %q ran at wg=%d, tuner selected %d", eng.Name(), name, got, d.WGSize)
		}
	}
}

// TestForcedVariantBypassesTuner: without Auto, the engines run exactly the
// configured kernel and record no tuner state — the pre-autotuner contract.
func TestForcedVariantBypassesTuner(t *testing.T) {
	asm := testAssembly(t, 11, []int{700, 450}, testSite)
	req := testRequest(2)
	eng := &SimSYCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Variant: kernels.Opt1}
	if _, err := eng.Run(asm, req); err != nil {
		t.Fatalf("run: %v", err)
	}
	p := eng.LastProfile()
	if p.Tune != nil {
		t.Errorf("forced-variant run recorded tuner state: %v", p.Tune)
	}
	if p.Launches["comparer_opt1"] == 0 {
		t.Errorf("forced opt1 not launched; profiled %v", p.KernelNames())
	}
}
