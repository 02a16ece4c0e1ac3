// Package bench is the experiment harness: it reruns the paper's evaluation
// (§IV) on the simulator and regenerates every table and figure — Table VIII
// (OpenCL vs SYCL elapsed time), Table IX (baseline vs optimized SYCL),
// Table X (ISA metrics) and Fig. 2 (comparer kernel time across the
// optimization ladder) — plus the environment tables I and VII.
//
// Measurements run the full functional pipeline on a scaled-down synthetic
// assembly (hg19-like / hg38-like profiles), then project the collected
// per-kernel access statistics to the full assembly size through the
// analytic timing model. Shapes (speedups, deltas, crossovers), not
// absolute seconds, are the reproduced quantity; EXPERIMENTS.md records
// both sides.
package bench

import (
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/isa"
	"casoffinder/internal/kernels"
	"casoffinder/internal/search"
	"casoffinder/internal/timing"
)

// API selects the host programming model of a measurement.
type API string

// The two applications of the paper.
const (
	OpenCL API = "OpenCL"
	SYCL   API = "SYCL"
)

// ExamplePattern and ExampleQueries reproduce the upstream example input
// (cas-offinder README, reference [17]): an SpCas9 NRG PAM scaffold and two
// 20-nt guides searched with up to 5 mismatches.
const ExamplePattern = "NNNNNNNNNNNNNNNNNNNNNRG"

// ExampleQueries returns the example guide queries.
func ExampleQueries() []search.Query {
	return []search.Query{
		{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 5},
		{Guide: "CGCCAGCGTCAGCGACAGGTNNN", MaxMismatches: 5},
	}
}

// Workload is one dataset of the evaluation.
type Workload struct {
	// Name labels the dataset ("hg19", "hg38").
	Name string
	// Profile generates the synthetic stand-in assembly.
	Profile genome.Profile
	// Request is the search input.
	Request *search.Request
}

// DefaultScaleBases is the generated assembly size measurements run on;
// statistics are projected to Profile.FullScaleBases.
const DefaultScaleBases = 1 << 20

// FullScaleChunkBytes is the chunk size the application would use against a
// full assembly on a real device (a fraction of device memory), used to
// project the host-side chunk count.
const FullScaleChunkBytes = 512 << 20

// HG19Workload returns the hg19 dataset at the given generated size.
func HG19Workload(scaleBases int) Workload {
	return Workload{
		Name:    "hg19",
		Profile: genome.HG19Like(scaleBases),
		Request: &search.Request{
			Pattern:    ExamplePattern,
			Queries:    ExampleQueries(),
			ChunkBytes: scaleBases / 4,
		},
	}
}

// HG38Workload returns the hg38 dataset at the given generated size.
func HG38Workload(scaleBases int) Workload {
	return Workload{
		Name:    "hg38",
		Profile: genome.HG38Like(scaleBases),
		Request: &search.Request{
			Pattern:    ExamplePattern,
			Queries:    ExampleQueries(),
			ChunkBytes: scaleBases / 4,
		},
	}
}

// Workloads returns both datasets of the evaluation.
func Workloads(scaleBases int) []Workload {
	return []Workload{HG19Workload(scaleBases), HG38Workload(scaleBases)}
}

// Measurement is the projected result of one (device, API, variant,
// dataset) cell.
type Measurement struct {
	Device  device.Spec
	API     API
	Variant kernels.ComparerVariant
	Dataset string

	// FinderSeconds and ComparerSeconds are the projected full-assembly
	// kernel times; HostSeconds the projected host-side time.
	FinderSeconds   float64
	ComparerSeconds float64
	HostSeconds     float64

	// FinderBreakdown and ComparerBreakdown expose the model terms behind
	// the kernel times.
	FinderBreakdown   timing.Breakdown
	ComparerBreakdown timing.Breakdown

	// Hits is the functional result count on the scaled assembly (engines
	// are verified elsewhere to agree; it is recorded for sanity).
	Hits int
}

// ElapsedSeconds is the projected end-to-end time (kernel + host), the
// quantity Tables VIII and IX report.
func (m Measurement) ElapsedSeconds() float64 {
	return m.FinderSeconds + m.ComparerSeconds + m.HostSeconds
}

// KernelSeconds is the total kernel time.
func (m Measurement) KernelSeconds() float64 { return m.FinderSeconds + m.ComparerSeconds }

// Measure runs the workload on the simulator with the given device, API
// and comparer variant, then projects to full assembly scale.
func Measure(spec device.Spec, api API, variant kernels.ComparerVariant, wl Workload) (*Measurement, error) {
	asm, err := genome.Generate(wl.Profile)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	dev := gpu.New(spec)

	var (
		eng  search.Engine
		prof func() *search.Profile
	)
	switch api {
	case OpenCL:
		e := &search.SimCL{Device: dev, Variant: variant}
		eng, prof = e, e.LastProfile
	case SYCL:
		e := &search.SimSYCL{Device: dev, Variant: variant}
		eng, prof = e, e.LastProfile
	default:
		return nil, fmt.Errorf("bench: unknown API %q", api)
	}

	hits, err := eng.Run(asm, wl.Request)
	if err != nil {
		return nil, fmt.Errorf("bench: %s on %s: %w", api, spec.Name, err)
	}
	p := prof()

	scale := float64(wl.Profile.FullScaleBases) / float64(wl.Profile.TotalBases)
	plen := len(wl.Request.Pattern)

	m := &Measurement{
		Device:  spec,
		API:     api,
		Variant: variant,
		Dataset: wl.Name,
		Hits:    len(hits),
	}

	cm := isa.ComparerMetrics(variant, spec, plen)
	fm := isa.FinderMetrics(spec, plen)
	for name, stats := range p.Kernels {
		scaled := timing.ScaleStats(stats, scale)
		wg := p.WorkGroupSizes[name]
		if name == "finder" {
			cfg := timing.FinderConfig(spec, fm.Occupancy, fm.VGPRs, wg, plen)
			m.FinderBreakdown = timing.KernelBreakdown(cfg, &scaled)
			m.FinderSeconds = m.FinderBreakdown.Total()
		} else {
			cfg := timing.ComparerConfig(spec, cm.Occupancy, cm.VGPRs, wg, plen, !variant.CooperativeFetch())
			bd := timing.KernelBreakdown(cfg, &scaled)
			m.ComparerBreakdown = bd
			m.ComparerSeconds += bd.Total()
		}
	}
	// Bytes and entries scale linearly with assembly size; the chunk count
	// does not — a full-scale run stages device-memory-sized chunks, so it
	// is recomputed from the full-scale chromosome lengths.
	host := timing.ScaleHost(timing.HostCounters{
		BytesStaged: p.BytesStaged,
		BytesRead:   p.BytesRead,
		Entries:     p.Entries,
	}, scale)
	fullChunks, err := fullScaleChunks(wl.Profile, plen)
	if err != nil {
		return nil, err
	}
	host.Chunks = int64(fullChunks)
	m.HostSeconds = timing.HostSeconds(host)
	return m, nil
}

// fullScaleChunks plans the chunking of the full-size assembly the profile
// models.
func fullScaleChunks(p genome.Profile, plen int) (int, error) {
	var totalW float64
	for _, c := range p.Chromosomes {
		totalW += c.Weight
	}
	lens := make([]int, 0, len(p.Chromosomes))
	for _, c := range p.Chromosomes {
		lens = append(lens, int(float64(p.FullScaleBases)*c.Weight/totalW))
	}
	chunker := &genome.Chunker{ChunkBytes: FullScaleChunkBytes, PatternLen: plen}
	return chunker.CountChunks(lens)
}
