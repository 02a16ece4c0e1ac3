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
// must report the same Profile every time. The workload is multi-chunk and
// hit-dense enough that nearly every finder work-group claims an arena page
// while only some comparer groups emit, so a candidate order that followed
// the page-cursor race would move the comparer's claim atomics and page
// claims from run to run. It must not trip the overflow relaunch: which
// groups win pages in an under-provisioned launch is itself a race, so the
// discarded attempt's statistics are not a function of the input.
func TestSimProfileSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 160_000)
	for i := range data {
		data[i] = "ACGT"[rng.Intn(4)]
	}
	asm := &genome.Assembly{Name: "dense", Sequences: []*genome.Sequence{{Name: "chr1", Data: data}}}
	req := &Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: "GATTACAGATNN", MaxMismatches: 3}, {Guide: "CCTGAGGTCANN", MaxMismatches: 3}},
		ChunkBytes: 32_000,
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
			var want *Profile
			for run := 0; run < 20; run++ {
				eng := build()
				if _, err := eng.Run(asm, req); err != nil {
					t.Fatal(err)
				}
				got := eng.LastProfile()
				if run == 0 {
					if got.Entries == 0 || got.Chunks < 2 || got.OverflowRetries != 0 {
						t.Fatalf("unsuitable workload: %d entries over %d chunks, %d overflow relaunches",
							got.Entries, got.Chunks, got.OverflowRetries)
					}
					want = got
					continue
				}
				if !reflect.DeepEqual(got.Kernels, want.Kernels) {
					t.Errorf("run %d: kernel stats moved:\n got %+v\nwant %+v", run, got.Kernels, want.Kernels)
				}
				if !reflect.DeepEqual(got.Launches, want.Launches) {
					t.Errorf("run %d: launches %v, want %v", run, got.Launches, want.Launches)
				}
				if got.BytesStaged != want.BytesStaged || got.BytesRead != want.BytesRead {
					t.Errorf("run %d: staged/read %d/%d bytes, want %d/%d",
						run, got.BytesStaged, got.BytesRead, want.BytesStaged, want.BytesRead)
				}
				if got.ArenaBytes != want.ArenaBytes || got.ArenaPageClaims != want.ArenaPageClaims {
					t.Errorf("run %d: arena %d bytes / %d page claims, want %d / %d",
						run, got.ArenaBytes, got.ArenaPageClaims, want.ArenaBytes, want.ArenaPageClaims)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}
