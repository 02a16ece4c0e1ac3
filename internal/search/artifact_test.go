package search

import (
	"errors"
	"path/filepath"
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

// artifactAssembly round-trips asm through the persistent artifact codec —
// build, write, O(header) load — and returns the artifact-backed assembly,
// so every test below runs against bytes that actually crossed the disk
// format.
func artifactAssembly(t *testing.T, asm *genome.Assembly, pattern string) *genome.Assembly {
	t.Helper()
	art, err := BuildArtifact(asm, pattern)
	if err != nil {
		t.Fatalf("BuildArtifact: %v", err)
	}
	path := filepath.Join(t.TempDir(), "asm.cart")
	if err := art.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := genome.LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return loaded.Assembly()
}

// TestArtifactEquivalenceAllEngines pins the tentpole contract: an
// artifact-backed run is byte-identical to a FASTA-backed run on every
// engine — with PAM shards for the request's scaffold (the shard fast
// path), with shards for a different scaffold (resident views, prefilter
// recomputed) and with no shards at all. The request's 300-byte chunks put
// most chunks at a non-zero base of the resident view the simulated kernels
// read, so their Profile.Kernels and Launches must equal FASTA's too: a
// wrong base moves a candidate, a counter or a launch.
func TestArtifactEquivalenceAllEngines(t *testing.T) {
	asm := testAssembly(t, 11, []int{3000, 1700, 950}, testSite)
	req := testRequest(2)
	req.Queries = append(req.Queries, Query{Guide: "GATTACAGTANN", MaxMismatches: 1})

	engines := []struct {
		name string
		eng  Engine
	}{
		{"cpu", &CPU{Workers: 2}},
		{"cpu-bytes", &refCPU{Workers: 2, Arm: refBytes}},
		{"cpu-scalar", &refCPU{Workers: 2, Arm: refScalar}},
		{"opencl", &SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(2)), Variant: kernels.Base}},
		{"sycl", &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(2)), Variant: kernels.Opt3, WorkGroupSize: 64}},
	}
	arts := []struct {
		name string
		asm  *genome.Assembly
	}{
		{"pam-shards", artifactAssembly(t, asm, req.Pattern)},
		{"other-pattern", artifactAssembly(t, asm, "NNNNNNNNNNCC")},
		{"no-shards", artifactAssembly(t, asm, "")},
	}
	for _, e := range engines {
		want, err := e.eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s on FASTA assembly: %v", e.name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: fixture produced no hits", e.name)
		}
		prof, _ := e.eng.(Profiler)
		var wantProf *Profile
		if prof != nil {
			wantProf = prof.LastProfile()
		}
		for _, a := range arts {
			got, err := e.eng.Run(a.asm, req)
			if err != nil {
				t.Fatalf("%s on %s artifact: %v", e.name, a.name, err)
			}
			if !equalHits(got, want) {
				t.Errorf("%s on %s artifact: %d hits diverge from FASTA's %d", e.name, a.name, len(got), len(want))
			}
			if prof == nil {
				continue
			}
			if gotProf := prof.LastProfile(); !reflect.DeepEqual(gotProf.Kernels, wantProf.Kernels) || !reflect.DeepEqual(gotProf.Launches, wantProf.Launches) {
				t.Errorf("%s on %s artifact: kernels %+v, launches %v; FASTA's %+v, %v",
					e.name, a.name, gotProf.Kernels, gotProf.Launches, wantProf.Kernels, wantProf.Launches)
			}
		}
	}
}

// TestArtifactShardMatchesScan pins the per-chunk identity the shard fast
// path rests on: the precomputed shard sliced to a chunk window equals a
// fresh SWAR prefilter over that chunk, candidate for candidate — against
// the chunk's own repacked view once each shard position is made
// chunk-local, and against the artifact's whole-sequence view as is.
func TestArtifactShardMatchesScan(t *testing.T) {
	for _, seed := range []int64{5, 21} {
		asm := testAssembly(t, seed, []int{2000, 1100}, testSite)
		art, err := BuildArtifact(asm, testPattern)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := kernels.NewPatternPair([]byte(testPattern))
		if err != nil {
			t.Fatal(err)
		}
		bp := compileBitPattern(pair)
		chunker := &genome.Chunker{ChunkBytes: 300, PatternLen: pair.PatternLen}
		chunks := 0
		err = chunker.Each(asm, func(ch *genome.Chunk) error {
			chunks++
			var local, resident scanScratch
			v, err := genome.NewWordView(ch.Data, nil)
			if err != nil {
				return err
			}
			local.findSWARCandidates(v, bp, 0, ch.Body)
			resident.findSWARCandidates(art.View(ch.SeqIndex), bp, ch.Start, ch.Body)
			shard := art.PAMRange(ch.SeqIndex, ch.Start, ch.Start+ch.Body)
			if len(local.cand) != len(shard) || len(resident.cand) != len(shard) {
				t.Fatalf("seed %d chunk %s:%d: scans found %d and %d candidates, shard %d", seed, ch.SeqName, ch.Start, len(local.cand), len(resident.cand), len(shard))
			}
			for i, e := range shard {
				if got := genome.NewPAMEntry(local.cand[i].Pos()+ch.Start, local.cand[i].Strand()); got != e || resident.cand[i] != e {
					t.Fatalf("seed %d chunk %s:%d candidate %d: scans %#x (chunk-local) and %#x, shard %#x", seed, ch.SeqName, ch.Start, i, local.cand[i], resident.cand[i], e)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if chunks < 4 {
			t.Fatalf("seed %d: only %d chunks", seed, chunks)
		}
	}
}

// badShardAssembly builds an artifact whose first shard is the given
// hostile entries (the codec cannot produce them; a bit flip in a stored
// shard can).
func badShardAssembly(t *testing.T, asm *genome.Assembly, pattern string, plen int, entries ...genome.PAMEntry) *genome.Assembly {
	t.Helper()
	art, err := genome.BuildArtifact(asm, pattern, plen, func(si int, v *genome.WordView) []genome.PAMEntry {
		if si == 0 {
			return entries
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return art.Assembly()
}

// TestArtifactCorruptShardRejected: a shard entry a chunk selects that
// violates its geometry must reject the run with a corruption-classed error,
// and one no chunk selects must stay inert — never a panic, never a silent
// wrong answer.
func TestArtifactCorruptShardRejected(t *testing.T) {
	asm := testAssembly(t, 7, []int{900}, testSite)
	req := testRequest(2)
	plen := len(testPattern)

	isCorruption := func(err error) bool {
		var fe *fault.Error
		return errors.As(err, &fe) && fe.Class == fault.Corruption && fe.Site == fault.SiteArtifact
	}

	// Strand bits zeroed: selected by every consumer, impossible by
	// construction.
	zeroStrand := badShardAssembly(t, asm, req.Pattern, plen, 5<<2)
	if _, err := (&CPU{}).Run(zeroStrand, req); !isCorruption(err) {
		t.Errorf("CPU on zero-strand shard: err = %v, want artifact corruption", err)
	}

	// Out of order: the second chunk's binary searches select [500, 10],
	// and position 10 lies in the first chunk's body.
	unsorted := badShardAssembly(t, asm, req.Pattern, plen,
		genome.NewPAMEntry(5, genome.PAMFwd), genome.NewPAMEntry(500, genome.PAMFwd), genome.NewPAMEntry(10, genome.PAMFwd))
	if _, err := (&CPU{}).Run(unsorted, req); !isCorruption(err) {
		t.Errorf("CPU on an unsorted shard: err = %v, want artifact corruption", err)
	}

	// A position whose window overruns the sequence end lies in no chunk
	// body, so no chunk's shard slice selects it: the run must not slice
	// past the sequence, and may report only sites the FASTA run reports.
	want, err := (&CPU{}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	overrun := badShardAssembly(t, asm, req.Pattern, plen, genome.NewPAMEntry(900-1, genome.PAMFwd))
	got, err := (&CPU{}).Run(overrun, req)
	if err != nil {
		t.Fatalf("CPU on overrun shard: %v", err)
	}
	for _, h := range got {
		found := false
		for _, w := range want {
			found = found || h == w
		}
		if !found {
			t.Errorf("CPU on overrun shard reports %+v, which the FASTA run does not", h)
		}
	}
}

// TestArtifactFaultFailover: a seeded fault run over an artifact-backed
// assembly still matches the clean FASTA run — the CPU failover backend
// consumes the same resident artifact through the plan seam.
func TestArtifactFaultFailover(t *testing.T) {
	asm := testAssembly(t, 13, []int{2200}, testSite)
	req := testRequest(2)
	want, err := (&CPU{}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no hits")
	}
	dev := gpu.New(device.MI100(), gpu.WithWorkers(2))
	dev.SetFaults(fault.NewInjector(fault.Plan{Seed: 3, Rate: 0.2}))
	eng := &SimSYCL{
		Device: dev, Variant: kernels.Base, WorkGroupSize: 64,
		// The watchdog is part of the policy, so an injected gpu.hang
		// parks until the watchdog reaps it.
		Resilience: &pipeline.Resilience{Seed: 3, Watchdog: 500 * time.Millisecond},
	}
	got, err := eng.Run(artifactAssembly(t, asm, req.Pattern), req)
	if err != nil {
		t.Fatalf("seeded fault run: %v", err)
	}
	if !equalHits(got, want) {
		t.Errorf("artifact-backed fault run diverged: %d hits vs %d", len(got), len(want))
	}
}

// TestBuildArtifactBadPattern: an uncompilable scaffold fails the build.
func TestBuildArtifactBadPattern(t *testing.T) {
	asm := testAssembly(t, 1, []int{200}, testSite)
	if _, err := BuildArtifact(asm, "NN!!NN"); err == nil {
		t.Error("BuildArtifact(bad pattern) = nil error")
	}
}
