package bench

import (
	"fmt"
	"strings"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/timing"
)

// Ablation experiments for the design choices DESIGN.md calls out. They go
// beyond the paper's figures: the work-group-size sweep isolates the
// mechanism behind the Table VIII OpenCL/SYCL gap (the paper fixes SYCL at
// 256 and lets the OpenCL runtime choose), and the chunk-size sweep probes
// the host-pipeline trade-off behind the "chunks that can fit the memory of
// a heterogeneous device" design of §II.A.

// WGSweepPoint is the projected comparer kernel time for one work-group
// size.
type WGSweepPoint struct {
	Device        string
	WorkGroupSize int
	Seconds       float64
}

// WGSweep measures the baseline comparer under explicit work-group sizes on
// the SYCL engine, hg19 workload: one run per size, priced on every device.
func WGSweep(scaleBases int, sizes []int) ([]WGSweepPoint, error) {
	arms := make([]Arm, len(sizes))
	for i, wg := range sizes {
		arms[i] = Arm{API: SYCL, Variant: kernels.Base, WorkGroupSize: wg}
	}
	cs, err := RunDataset(HG19Workload(scaleBases), arms...)
	if err != nil {
		return nil, err
	}
	var points []WGSweepPoint
	for _, spec := range device.All() {
		ms, err := projectEach(cs, spec)
		if err != nil {
			return nil, err
		}
		for i, m := range ms {
			points = append(points, WGSweepPoint{Device: spec.Name, WorkGroupSize: sizes[i], Seconds: m.ComparerSeconds})
		}
	}
	return points, nil
}

// RenderWGSweep renders the sweep.
func RenderWGSweep(points []WGSweepPoint) string {
	var b strings.Builder
	b.WriteString("Ablation: comparer kernel time vs work-group size (baseline kernel, hg19)\n")
	fmt.Fprintf(&b, "%-7s %6s %10s\n", "Device", "WG", "seconds")
	for _, p := range points {
		fmt.Fprintf(&b, "%-7s %6d %10.2f\n", p.Device, p.WorkGroupSize, p.Seconds)
	}
	b.WriteString("(larger groups amortise the serialised leader staging: the Table VIII mechanism)\n")
	return b.String()
}

// ChunkSweepPoint is the projected host-side time for one chunk size.
type ChunkSweepPoint struct {
	ChunkBytes  int64
	Chunks      int
	HostSeconds float64
}

// ChunkSweep projects the host pipeline cost of scanning a full hg19-size
// assembly with different device chunk budgets.
func ChunkSweep(chunkSizes []int64) ([]ChunkSweepPoint, error) {
	profile := genome.HG19Like(1 << 20)
	plen := len(ExamplePattern)
	var totalW float64
	for _, c := range profile.Chromosomes {
		totalW += c.Weight
	}
	lens := make([]int, 0, len(profile.Chromosomes))
	for _, c := range profile.Chromosomes {
		lens = append(lens, int(float64(profile.FullScaleBases)*c.Weight/totalW))
	}
	var points []ChunkSweepPoint
	for _, cb := range chunkSizes {
		chunker := &genome.Chunker{ChunkBytes: int(cb), PatternLen: plen}
		n, err := chunker.CountChunks(lens)
		if err != nil {
			return nil, err
		}
		host := timing.HostSeconds(timing.HostCounters{
			BytesStaged: profile.FullScaleBases,
			BytesRead:   profile.FullScaleBases / 50,
			Chunks:      int64(n),
			Entries:     100_000,
		})
		points = append(points, ChunkSweepPoint{ChunkBytes: cb, Chunks: n, HostSeconds: host})
	}
	return points, nil
}

// RenderChunkSweep renders the sweep.
func RenderChunkSweep(points []ChunkSweepPoint) string {
	var b strings.Builder
	b.WriteString("Ablation: host pipeline cost vs device chunk size (hg19 full scale)\n")
	fmt.Fprintf(&b, "%12s %8s %10s\n", "chunk bytes", "chunks", "host sec")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %8d %10.2f\n", p.ChunkBytes, p.Chunks, p.HostSeconds)
	}
	return b.String()
}
