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
// simulator engines' accounting: the same search on four-worker devices
// must report the same Profile — the whole struct — every time.
//
// The first workload is multi-chunk and hit-dense enough that nearly every
// finder work-group claims an arena page while only some comparer groups
// emit, so a candidate order that followed the page-cursor race would move
// the comparer's claim atomics and page claims from run to run; some of its
// comparer launches need more than the first attempt's pages and relaunch.
// The second puts an all-G chunk behind a PAM-rich but hit-free one: every
// comparer group of the all-G chunk emits, and which groups win the few
// provisioned pages of each first attempt is a race between workers. A
// voided attempt must therefore leave no schedule-dependent trace — its
// kernel statistics stay out of the profile — while the relaunch it forces
// is counted. Each workload's relaunch count is pinned: every arena layout
// is a function of its own launch, so it cannot depend on the schedule.
func TestSimProfileSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = "ACGT"[rng.Intn(4)]
	}
	overflowReq := denseRequest()
	overflowReq.ChunkBytes = 2_200 // finder and all-G comparer launches past the simulator's inline threshold
	workloads := []struct {
		name    string
		asm     *genome.Assembly
		req     *Request
		retries int64
	}{
		{"dense", &genome.Assembly{Name: "dense", Sequences: []*genome.Sequence{{Name: "chr1", Data: data}}}, &Request{
			Pattern:    testPattern,
			Queries:    []Query{{Guide: "GATTACAGATNN", MaxMismatches: 4}, {Guide: "CCTGAGGTCANN", MaxMismatches: 4}},
			ChunkBytes: 5_000,
		}, 4},
		{"overflow", denseAssembly(2_200, 2_200), overflowReq, 1},
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
							if got.Entries == 0 || got.Chunks < 2 {
								t.Fatalf("unsuitable workload: %d entries over %d chunks", got.Entries, got.Chunks)
							}
							if got.OverflowRetries != w.retries {
								t.Fatalf("%d overflow relaunches, want %d", got.OverflowRetries, w.retries)
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
