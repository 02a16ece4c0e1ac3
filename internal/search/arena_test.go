package search

import (
	"context"
	"reflect"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// denseAssembly builds the arena stress genome in two regions. The first is
// PAM-rich but hit-free — a repeating GGA unit puts a candidate at every
// third position while the interleaved As keep the all-G guide over its
// mismatch budget — so its chunks carry large worst-case comparer
// provisioning that the comparer's small first attempt avoids. The second is
// all G: every position is a PAM site and every candidate is a hit, so every
// comparer group emits — exactly the shape that must trip the overflow
// refit-and-relaunch path rather than drop hits.
func denseAssembly(sparse, dense int) *genome.Assembly {
	unit := []byte("GGA")
	data := make([]byte, sparse+dense)
	for i := 0; i < sparse; i++ {
		data[i] = unit[i%len(unit)]
	}
	for i := sparse; i < len(data); i++ {
		data[i] = 'G'
	}
	return &genome.Assembly{Name: "dense", Sequences: []*genome.Sequence{
		{Name: "chr1", Data: data},
	}}
}

func denseRequest() *Request {
	return &Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: "GGGGGGGGGGNN", MaxMismatches: 1}},
		ChunkBytes: 400,
	}
}

// arenaProfile is the subset of engines whose arena accounting the dense
// matrix inspects.
type arenaProfiler interface {
	Engine
	LastProfile() *Profile
}

// arenaBuild names a constructor for one arena-backed engine, pinned to
// worst-case arenas or dynamically provisioned.
type arenaBuild struct {
	name  string
	build func(worst bool) arenaProfiler
}

// TestDenseCandidateRegionMatrix drives the dense genome through all four
// engines. For the arena-backed simulators it runs each engine twice — the
// dynamically provisioned default and the pinned worst-case baseline — and
// requires (1) the dynamic run's overflow relaunch actually fired, (2) its
// hit stream is byte-identical to the worst-case baseline and to the CPU
// reference, and (3) it provisioned no more arena bytes than worst-case
// provisioning plus the voided first attempt of each relaunched launch. A
// genome dense everywhere can cost more than the worst case, never more than
// that. CPU has no arena; it pins the reference stream.
func TestDenseCandidateRegionMatrix(t *testing.T) {
	asm := denseAssembly(3200, 500)
	req := denseRequest()

	want, err := (&CPU{Workers: 4}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 300 {
		t.Fatalf("dense genome produced only %d hits; region is not dense", len(want))
	}

	builds := []arenaBuild{
		{"opencl-sim", func(worst bool) arenaProfiler {
			return &SimCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)),
				Variant: kernels.Base, worstCaseArena: worst}
		}},
		{"sycl-sim", func(worst bool) arenaProfiler {
			return &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)),
				Variant: kernels.Opt3, WorkGroupSize: 64, worstCaseArena: worst}
		}},
	}
	// A voided first attempt costs at most the comparer's first-attempt
	// layout over the most groups a chunk's candidates can fill (one
	// candidate per site, 64-item groups in every build below).
	const pad = 64
	first := comparerLayout((req.ChunkBytes+pad-1)/pad, 2*pad, false)
	voided := first.DataBytes(comparerEntryBytes) + first.MetaBytes()
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			worstProf, dynProf := provisioningPair(t, b.build, asm, req, want)
			if bound := worstProf.ArenaBytes + dynProf.OverflowRetries*voided; dynProf.ArenaBytes > bound {
				t.Errorf("dynamic provisioning %d bytes > worst case %d + %d voided first attempts of %d bytes",
					dynProf.ArenaBytes, worstProf.ArenaBytes, dynProf.OverflowRetries, voided)
			}
			if dynProf.ArenaPageClaims == 0 {
				t.Error("no arena pages claimed on a genome full of hits")
			}
		})
	}
}

// provisioningPair runs one engine build twice on the same input, pinned to
// worst-case arenas and dynamically provisioned, and checks what holds on any
// genome with a dense region: both hit streams equal the CPU reference,
// worst-case provisioning never overflows and the dynamic run does. It
// returns the two profiles for the caller's byte accounting.
func provisioningPair(t *testing.T, build func(worst bool) arenaProfiler, asm *genome.Assembly, req *Request, want []Hit) (worstProf, dynProf *Profile) {
	t.Helper()
	worstEng := build(true)
	worstHits, err := worstEng.Run(asm, req)
	if err != nil {
		t.Fatalf("worst-case run: %v", err)
	}
	dynEng := build(false)
	dynHits, err := dynEng.Run(asm, req)
	if err != nil {
		t.Fatalf("dynamic run: %v", err)
	}
	if !equalHits(dynHits, worstHits) {
		t.Errorf("dynamic hits diverge from worst-case baseline (%d vs %d)",
			len(dynHits), len(worstHits))
	}
	if !equalHits(dynHits, want) {
		t.Errorf("hits diverge from the CPU reference (%d vs %d)", len(dynHits), len(want))
	}
	worstProf, dynProf = worstEng.LastProfile(), dynEng.LastProfile()
	if worstProf.OverflowRetries != 0 {
		t.Errorf("worst-case provisioning overflowed %d times; it never may",
			worstProf.OverflowRetries)
	}
	if dynProf.OverflowRetries == 0 {
		t.Error("dense region did not trip the overflow-retry path")
	}
	return worstProf, dynProf
}

// arenaFixture builds the provisioning genome in two regions. The first is
// a T desert with a lone GG PAM island every 512 bases: one finder
// work-group in eight emits a candidate, and no candidate survives the
// mismatch budget. The second region is all G — every position a PAM site,
// every candidate a hit — the density spike that must trip the overflow
// refit-and-relaunch path instead of dropping hits.
func arenaFixture(sparse, dense int) (*genome.Assembly, *Request) {
	data := make([]byte, sparse+dense)
	for i := 0; i < sparse; i++ {
		data[i] = 'T'
	}
	for i := 192; i+1 < sparse; i += 512 {
		data[i], data[i+1] = 'G', 'G'
	}
	for i := sparse; i < len(data); i++ {
		data[i] = 'G'
	}
	asm := &genome.Assembly{Name: "arena-dense", Sequences: []*genome.Sequence{
		{Name: "chr1", Data: data},
	}}
	req := &Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: "GGGGGGGGGGNN", MaxMismatches: 1}},
		ChunkBytes: 1 << 12,
	}
	return asm, req
}

// TestArenaProvisioningRatio pins the allocator's accounting exactly on the
// arenaFixture genome: arena bytes of the pinned worst-case and the dynamic
// run, and the dynamic run's relaunch count, on both simulators, with the
// hit stream equal to the worst-case run and to the CPU reference.
//
// The old 2.56x headline (145 128 bytes) came from the finder predictor
// learning the T desert's one-group-in-eight PAM density; the finder is now
// always provisioned at the worst case, and on real genomes 92–100% of
// finder groups emit anyway. The desert's comparer launches have one group
// each, so their first attempt already is the worst case; the spike's
// launch pays one voided four-page attempt plus an exact relaunch, 3 720
// bytes above the worst case.
func TestArenaProvisioningRatio(t *testing.T) {
	const worstBytes, dynBytes, dynRetries = 371304, 375024, 1
	asm, req := arenaFixture(1<<16, 1<<10)
	want, err := (&CPU{Workers: 4}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 500 {
		t.Fatalf("dense region produced only %d hits; fixture is not dense", len(want))
	}
	builds := []arenaBuild{
		{"opencl-sim", func(worst bool) arenaProfiler {
			return &SimCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(2)),
				Variant: kernels.Base, worstCaseArena: worst}
		}},
		{"sycl-sim", func(worst bool) arenaProfiler {
			return &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(2)),
				Variant: kernels.Base, WorkGroupSize: 64, worstCaseArena: worst}
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			worstProf, dynProf := provisioningPair(t, b.build, asm, req, want)
			if worstProf.ArenaBytes != worstBytes || dynProf.ArenaBytes != dynBytes {
				t.Errorf("arena bytes: worst-case %d, dynamic %d; want %d and %d",
					worstProf.ArenaBytes, dynProf.ArenaBytes, worstBytes, dynBytes)
			}
			if dynProf.OverflowRetries != dynRetries {
				t.Errorf("dynamic run relaunched %d times, want %d", dynProf.OverflowRetries, dynRetries)
			}
		})
	}
}

// TestDenseRegionSeededFaults overlays the dense-region overflow path with
// the seeded fault injector: overflow relaunches and fault retries compose,
// and the stream stays byte-identical to the clean run.
func TestDenseRegionSeededFaults(t *testing.T) {
	asm := denseAssembly(1200, 500)
	req := denseRequest()
	golden, err := (&CPU{Workers: 4}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range simEngines() {
		t.Run(se.name, func(t *testing.T) {
			plan := fault.Plan{Seed: 42, Rate: 0.05}
			eng := se.build(plan, &pipeline.Resilience{Seed: plan.Seed, Watchdog: 500 * time.Millisecond})
			got, err := eng.Run(asm, req)
			if err != nil {
				t.Fatalf("faulted dense run: %v", err)
			}
			if !equalHits(got, golden) {
				t.Errorf("hits diverged under faults (%d vs %d)", len(got), len(golden))
			}
		})
	}
}

// TestZeroBodyChunkFind is the regression test for the zero-site launch
// crash: a chunk with Body == 0 (representable — a tail that only carries
// overlap bases) used to reach the finder enqueue, whose zero-size launch
// reported zero work-groups and crashed the pad recovery with a division by
// zero. Find must skip the launch and leave zero candidates, and Compare on
// a chunk with no candidates must launch nothing: the profile is the one a
// run that never called it has.
func TestZeroBodyChunkFind(t *testing.T) {
	req := denseRequest()
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	ch := &genome.Chunk{
		SeqIndex: 0,
		SeqName:  "chr1",
		Start:    0,
		Data:     []byte("GATTACAGGGG"), // plen-1 = 11 overlap bases, no body
		Body:     0,
		Overlap:  11,
	}
	ctx := context.Background()

	cores := []*simCore{
		(&SimCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base}).core(),
		(&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}).core(),
	}
	for _, core := range cores {
		run := func(compare bool) *Profile {
			core.profile = newProfile()
			b, err := newSimBackend(core, plan)
			if err != nil {
				t.Fatal(err)
			}
			st, err := b.Stage(ctx, ch)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Find(ctx, st); err != nil || st.(*simStaged).n != 0 {
				t.Errorf("%s Find on zero-body chunk = (%d candidates, %v), want (0, nil)", core.name, st.(*simStaged).n, err)
			}
			if compare {
				if err := b.Compare(ctx, st); err != nil {
					t.Errorf("%s Compare on a chunk without candidates: %v", core.name, err)
				}
			}
			b.Release(st)
			if err := b.Close(); err != nil {
				t.Errorf("%s Close: %v", core.name, err)
			}
			return core.profile
		}
		if want, got := run(false), run(true); !reflect.DeepEqual(got, want) {
			t.Errorf("%s Compare on a chunk without candidates moved the profile:\n got %+v\nwant %+v", core.name, got, want)
		}
	}
}
