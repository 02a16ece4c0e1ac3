// Package bench is the experiment harness: it reruns the paper's evaluation
// (§IV) on the simulator and regenerates every table and figure — Table VIII
// (OpenCL vs SYCL elapsed time), Table IX (baseline vs optimized SYCL),
// Table X (ISA metrics) and Fig. 2 (comparer kernel time across the
// optimization ladder) — plus the environment tables I and VII.
//
// Measurements run once and project per device. Run executes the full
// functional pipeline on a scaled-down synthetic assembly (hg19-like /
// hg38-like profiles) once per (dataset, API, variant); its counters do not
// depend on the device, so Project prices them on each Table VII device,
// projecting the per-kernel access statistics to the full assembly size
// through the analytic timing model. Shapes (speedups, deltas, crossovers),
// not absolute seconds, are the reproduced quantity; EXPERIMENTS.md records
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

// ExamplePattern and exampleQueries reproduce the upstream example input
// (cas-offinder README, reference [17]): an SpCas9 NRG PAM scaffold and two
// 20-nt guides searched with up to 5 mismatches.
const ExamplePattern = "NNNNNNNNNNNNNNNNNNNNNRG"

// exampleQueries returns the example guide queries.
func exampleQueries() []search.Query {
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
			Queries:    exampleQueries(),
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
			Queries:    exampleQueries(),
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

// Arm is one functional configuration of a dataset: the host API, the
// comparer variant and a forced work-group size (0 leaves the local size to
// the application, as the paper's programs do).
type Arm struct {
	API           API
	Variant       kernels.ComparerVariant
	WorkGroupSize int
}

// Limits are the device limits the simulator enforces on a functional run:
// the largest launchable work-group, the local memory one work-group may
// use, and the global memory all live allocations may use.
type Limits struct {
	MaxWorkGroupSize int
	LDSPerCUBytes    int
	GlobalMemBytes   int64
}

func limitsOf(s device.Spec) Limits {
	return Limits{s.MaxWorkGroupSize, s.LDSPerCUBytes, s.GlobalMemBytes}
}

// tightest returns the smallest of each limit over specs.
func tightest(specs []device.Spec) Limits {
	l := limitsOf(specs[0])
	for _, s := range specs[1:] {
		l.MaxWorkGroupSize = min(l.MaxWorkGroupSize, s.MaxWorkGroupSize)
		l.LDSPerCUBytes = min(l.LDSPerCUBytes, s.LDSPerCUBytes)
		l.GlobalMemBytes = min(l.GlobalMemBytes, s.GlobalMemBytes)
	}
	return l
}

// fits reports whether s allows everything a run checked under l could do.
func (l Limits) fits(s device.Spec) bool {
	return s.MaxWorkGroupSize >= l.MaxWorkGroupSize && s.LDSPerCUBytes >= l.LDSPerCUBytes &&
		s.GlobalMemBytes >= l.GlobalMemBytes
}

// LimitError is Project's refusal to price a run on a device tighter than
// the limits the run was checked under: that device might have rejected one
// of its launches or allocations.
type LimitError struct {
	Device string
	// Run is what the run was checked under; Spec is what the device allows.
	Run, Spec Limits
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("bench: %s allows %+v, tighter than the %+v the run was checked under", e.Device, e.Spec, e.Run)
}

// Counters is what one functional run leaves behind. Its profile and hits do
// not depend on the device the run was checked on (TestRunDeviceIndependent),
// so one run is priced on every device by Project.
type Counters struct {
	Arm
	Workload Workload
	// Profile is the run's ledger: per-kernel statistics and work-group
	// sizes, host traffic and entry counts.
	Profile *search.Profile
	// Hits is the functional result count on the scaled assembly.
	Hits int
	// Limits are the tightest limits of the devices the run was checked for.
	Limits Limits
}

// Run runs one arm of the workload on asm once, on a simulated device that
// enforces the tightest limits of specs (the devices its counters will be
// priced on). Its other fields are the first spec's; they do not move the
// counters.
func Run(asm *genome.Assembly, arm Arm, wl Workload, specs []device.Spec) (*Counters, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("bench: %s: no device to run for", wl.Name)
	}
	lim := tightest(specs)
	run := specs[0]
	run.MaxWorkGroupSize, run.LDSPerCUBytes, run.GlobalMemBytes = lim.MaxWorkGroupSize, lim.LDSPerCUBytes, lim.GlobalMemBytes
	dev := gpu.New(run)

	var (
		eng  search.Engine
		prof func() *search.Profile
	)
	switch arm.API {
	case OpenCL:
		e := &search.SimCL{Device: dev, Variant: arm.Variant, WorkGroupSize: arm.WorkGroupSize}
		eng, prof = e, e.LastProfile
	case SYCL:
		e := &search.SimSYCL{Device: dev, Variant: arm.Variant, WorkGroupSize: arm.WorkGroupSize}
		eng, prof = e, e.LastProfile
	default:
		return nil, fmt.Errorf("bench: unknown API %q", arm.API)
	}

	hits, err := eng.Run(asm, wl.Request)
	if err != nil {
		return nil, fmt.Errorf("bench: %s %s: %w", wl.Name, arm.API, err)
	}
	return &Counters{Arm: arm, Workload: wl, Profile: prof(), Hits: len(hits), Limits: lim}, nil
}

// RunDataset generates the workload's assembly and runs each arm on it once,
// for the Table VII devices. The assembly is dropped when it returns, so a
// caller looping over datasets holds one at a time.
func RunDataset(wl Workload, arms ...Arm) ([]*Counters, error) {
	asm, err := genome.Generate(wl.Profile)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	cs := make([]*Counters, len(arms))
	for i, arm := range arms {
		if cs[i], err = Run(asm, arm, wl, device.All()); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// Project prices a run on spec: the collected statistics are projected to
// full assembly scale through the analytic timing model. It is pure
// arithmetic over the counters, the ISA metrics and the timing model; a spec
// tighter than the run's limits is a *LimitError.
func Project(c *Counters, spec device.Spec) (*Measurement, error) {
	if !c.Limits.fits(spec) {
		return nil, &LimitError{Device: spec.Name, Run: c.Limits, Spec: limitsOf(spec)}
	}
	wl, p, variant := c.Workload, c.Profile, c.Variant
	scale := float64(wl.Profile.FullScaleBases) / float64(wl.Profile.TotalBases)
	plen := len(wl.Request.Pattern)

	m := &Measurement{
		Device:  spec,
		API:     c.API,
		Variant: variant,
		Dataset: wl.Name,
		Hits:    c.Hits,
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

// Measure runs the workload on the simulator with the given device, API
// and comparer variant, then projects to full assembly scale: Run and
// Project for one cell.
func Measure(spec device.Spec, api API, variant kernels.ComparerVariant, wl Workload) (*Measurement, error) {
	asm, err := genome.Generate(wl.Profile)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	c, err := Run(asm, Arm{API: api, Variant: variant}, wl, []device.Spec{spec})
	if err != nil {
		return nil, err
	}
	return Project(c, spec)
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
