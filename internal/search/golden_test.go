package search

import (
	"bytes"
	"context"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// TestGoldenOutput pins the exact output of the pipeline on a fixed input:
// a regression guard for coordinates, strand handling, site rendering and
// output formatting, across all engines.
func TestGoldenOutput(t *testing.T) {
	asm := &genome.Assembly{Name: "golden", Sequences: []*genome.Sequence{
		// chr1: a perfect forward site at 3, a 1-mismatch forward site at
		// 18 and the reverse complement of a perfect site at 33.
		{Name: "chr1", Data: []byte("ACCGATTACAGGTTTACCGATTACTGGTTTACCCCTGTAATCTT")},
		// chr2: soft-masked perfect site at 2.
		{Name: "chr2", Data: []byte("ttgattacaggtt")},
	}}
	req := &Request{
		Pattern:    "NNNNNNNGG",
		Queries:    []Query{{Guide: "GATTACANN", MaxMismatches: 1}},
		ChunkBytes: 16, // exercise chunk boundaries
	}
	const want = `GATTACANN	chr1	3	GATTACAGG	+	0
GATTACANN	chr1	18	GATTACtGG	+	1
GATTACANN	chr1	33	GATTACAGG	-	0
GATTACANN	chr2	2	GATTACAGG	+	0
`
	engs := []Engine{
		&CPU{},
		&refCPU{Arm: refBytes},
		&SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(2)), Variant: kernels.Base},
		&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(2)), Variant: kernels.Opt4, WorkGroupSize: 16},
	}
	for _, eng := range engs {
		hits, err := eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		var buf bytes.Buffer
		if err := writeHits(&buf, req, hits); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Errorf("%s output:\n%s\nwant:\n%s", eng.Name(), buf.String(), want)
		}

		// The streaming path must render the same lines; on this fixture
		// each chunk holds at most one hit, so the streamed order is already
		// the golden order.
		buf.Reset()
		err = eng.Stream(context.Background(), asm, req, func(h Hit) error {
			return WriteHit(&buf, req, h)
		})
		if err != nil {
			t.Fatalf("%s stream: %v", eng.Name(), err)
		}
		if buf.String() != want {
			t.Errorf("%s streamed output:\n%s\nwant:\n%s", eng.Name(), buf.String(), want)
		}
	}
}
