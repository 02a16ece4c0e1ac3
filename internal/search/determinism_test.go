package search

import (
	"math/rand"
	"reflect"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// TestSimProfileSchedule is the schedule-independence property of the
// simulator engines' accounting: the same search on a four-worker device
// must report the same Profile — the whole struct — every time.
//
// The first workload is multi-chunk and hit-dense enough that nearly every
// finder work-group claims an arena page while only some comparer groups
// emit, so a candidate order that followed the page-cursor race would move
// the comparer's claim atomics and page claims from run to run; it never
// overflows an arena. The second is deliberately under-provisioned: after
// PAM-rich but hit-free chunks have taught the predictor to expect nothing,
// an all-G region makes every comparer group emit, and which groups win the
// few provisioned pages of that launch is a race between workers. The
// voided attempt must therefore leave no schedule-dependent trace — its
// kernel statistics stay out of the profile — while the relaunch it forces
// is counted.
func TestSimProfileSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 160_000)
	for i := range data {
		data[i] = "ACGT"[rng.Intn(4)]
	}
	overflowReq := denseRequest()
	overflowReq.ChunkBytes = 8_000 // launches past the simulator's inline threshold
	workloads := []struct {
		name     string
		asm      *genome.Assembly
		req      *Request
		overflow bool
	}{
		{"dense", &genome.Assembly{Name: "dense", Sequences: []*genome.Sequence{{Name: "chr1", Data: data}}}, &Request{
			Pattern:    testPattern,
			Queries:    []Query{{Guide: "GATTACAGATNN", MaxMismatches: 3}, {Guide: "CCTGAGGTCANN", MaxMismatches: 3}},
			ChunkBytes: 32_000,
		}, false},
		{"overflow", denseAssembly(32_000, 8_000), overflowReq, true},
	}
	type profiler interface {
		Engine
		Profiler
	}
	engines := map[string]func() profiler{
		"opencl-sim": func() profiler {
			return &SimCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base}
		},
		"sycl-sim": func() profiler {
			return &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			for _, w := range workloads {
				t.Run(w.name, func(t *testing.T) {
					var want *Profile
					for run := 0; run < 20; run++ {
						eng := build()
						if _, err := eng.Run(w.asm, w.req); err != nil {
							t.Fatal(err)
						}
						got := eng.LastProfile()
						if run == 0 {
							if got.Entries == 0 || got.Chunks < 2 || (got.OverflowRetries > 0) != w.overflow {
								t.Fatalf("unsuitable workload: %d entries over %d chunks, %d overflow relaunches",
									got.Entries, got.Chunks, got.OverflowRetries)
							}
							want = got
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("run %d: profile moved:\n got %+v\nwant %+v", run, got, want)
						}
					}
				})
			}
		})
	}
}
