package casoffinder_bench

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/search"
)

// coldStartFixture writes one synthetic genome twice — as a FASTA directory
// (one file per chromosome, the layout casoffinder's positional argument
// expects) and as a packed artifact with the PAM-site index for the
// request's scaffold — and returns both paths plus the request. One exact
// site is planted early in the first chromosome so "first hit" is well
// defined and lands in the first chunks either way.
func coldStartFixture(tb testing.TB, bases int) (fastaDir, artPath string, req *search.Request) {
	tb.Helper()
	asm, err := genome.Generate(genome.HG38Like(bases))
	if err != nil {
		tb.Fatal(err)
	}
	copy(asm.Sequences[0].Data[4096:], "GGCCGACCTGTCGCTGACGCAGG")
	req = benchRequest()
	req.ChunkBytes = 1 << 15 // the planted hit completes within the first chunk

	dir := tb.TempDir()
	fastaDir = filepath.Join(dir, "genome")
	if err := os.MkdirAll(fastaDir, 0o755); err != nil {
		tb.Fatal(err)
	}
	for _, seq := range asm.Sequences {
		path := filepath.Join(fastaDir, seq.Name+".fa")
		if err := genome.WriteFASTAFile(path, []*genome.Sequence{seq}, 0); err != nil {
			tb.Fatal(err)
		}
	}
	art, err := search.BuildArtifact(asm, req.Pattern)
	if err != nil {
		tb.Fatal(err)
	}
	artPath = filepath.Join(dir, "genome.cart")
	if err := art.WriteFile(artPath); err != nil {
		tb.Fatal(err)
	}
	return fastaDir, artPath, req
}

// errFirstHit is the sentinel a cold-start stream returns on its first hit.
var errFirstHit = errors.New("first hit")

// coldFirstHit streams the CPU engine until the first hit lands.
func coldFirstHit(tb testing.TB, asm *genome.Assembly, req *search.Request) {
	tb.Helper()
	eng := &search.CPU{}
	err := eng.Stream(context.Background(), asm, req, func(search.Hit) error {
		return errFirstHit
	})
	if !errors.Is(err, errFirstHit) {
		tb.Fatalf("stream ended without a hit: %v", err)
	}
}

// TestColdStartRatio is the gate for the artifact's acceptance number:
// time-to-first-hit from the warm artifact must be at least 10x faster than
// from FASTA parse+pack. Each side takes the best of a few runs so scheduler
// noise cannot fail the gate; the measured ratio sits well above 10x (the
// FASTA side pays an O(genome) parse, the artifact side an O(header) mmap).
func TestColdStartRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive ratio gate")
	}
	fastaDir, artPath, req := coldStartFixture(t, 1<<22)

	best := func(run func()) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			run()
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	fasta := best(func() {
		asm, err := genome.LoadDir(fastaDir)
		if err != nil {
			t.Fatal(err)
		}
		coldFirstHit(t, asm, req)
	})
	artifact := best(func() {
		art, err := genome.LoadArtifact(artPath)
		if err != nil {
			t.Fatal(err)
		}
		coldFirstHit(t, art.Assembly(), req)
		if err := art.Close(); err != nil {
			t.Fatal(err)
		}
	})
	ratio := float64(fasta) / float64(artifact)
	t.Logf("cold start to first hit: fasta %v, artifact %v (%.1fx)", fasta, artifact, ratio)
	if ratio < 10 {
		t.Errorf("warm artifact cold start only %.1fx faster than FASTA (want >= 10x)", ratio)
	}
}
