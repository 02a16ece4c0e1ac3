package bench

import (
	"fmt"
	"strings"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/isa"
	"casoffinder/internal/kernels"
	"casoffinder/internal/opencl"
	"casoffinder/internal/sycl"
)

// Table8Row is one device row of Table VIII: elapsed OpenCL vs SYCL time
// per dataset.
type Table8Row struct {
	Device  string
	Dataset string
	OpenCL  float64
	SYCL    float64
}

// Speedup returns the OpenCL/SYCL elapsed ratio.
func (r Table8Row) Speedup() float64 { return r.OpenCL / r.SYCL }

// Table8 measures every (device, dataset) cell of Table VIII with the
// baseline comparer: one OpenCL and one SYCL run per dataset, each priced on
// every device (4 runs for 12 cells).
func Table8(scaleBases int) ([]Table8Row, error) {
	var rows []Table8Row
	for _, wl := range Workloads(scaleBases) {
		cs, err := RunDataset(wl, Arm{API: OpenCL, Variant: kernels.Base}, Arm{API: SYCL, Variant: kernels.Base})
		if err != nil {
			return nil, err
		}
		if cs[0].Hits != cs[1].Hits {
			return nil, fmt.Errorf("bench: %s: OpenCL found %d hits, SYCL %d", wl.Name, cs[0].Hits, cs[1].Hits)
		}
		for _, spec := range device.All() {
			ms, err := projectEach(cs, spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table8Row{
				Device:  spec.Name,
				Dataset: wl.Name,
				OpenCL:  ms[0].ElapsedSeconds(),
				SYCL:    ms[1].ElapsedSeconds(),
			})
		}
	}
	return rows, nil
}

// projectEach prices every run on spec.
func projectEach(cs []*Counters, spec device.Spec) ([]*Measurement, error) {
	ms := make([]*Measurement, len(cs))
	for i, c := range cs {
		var err error
		if ms[i], err = Project(c, spec); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// Table9Row is one device row of Table IX: elapsed SYCL time with the
// baseline vs the optimized (opt3) comparer.
type Table9Row struct {
	Device  string
	Dataset string
	Base    float64
	Opt     float64
}

// Speedup returns the base/opt elapsed ratio.
func (r Table9Row) Speedup() float64 { return r.Base / r.Opt }

// Table9 measures every (device, dataset) cell of Table IX: one baseline and
// one opt3 SYCL run per dataset (4 runs for 12 cells).
func Table9(scaleBases int) ([]Table9Row, error) {
	var rows []Table9Row
	for _, wl := range Workloads(scaleBases) {
		cs, err := RunDataset(wl, Arm{API: SYCL, Variant: kernels.Base}, Arm{API: SYCL, Variant: kernels.Opt3})
		if err != nil {
			return nil, err
		}
		if cs[0].Hits != cs[1].Hits {
			return nil, fmt.Errorf("bench: %s: base found %d hits, opt %d", wl.Name, cs[0].Hits, cs[1].Hits)
		}
		for _, spec := range device.All() {
			ms, err := projectEach(cs, spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table9Row{
				Device:  spec.Name,
				Dataset: wl.Name,
				Base:    ms[0].ElapsedSeconds(),
				Opt:     ms[1].ElapsedSeconds(),
			})
		}
	}
	return rows, nil
}

// Fig2Point is one bar of Fig. 2: the comparer kernel time for one
// (device, dataset, variant) combination.
type Fig2Point struct {
	Device  string
	Dataset string
	Variant kernels.ComparerVariant
	Seconds float64
}

// Fig2 measures the comparer kernel time for every optimization step on
// every device and dataset, the series of Fig. 2: one SYCL run per (dataset,
// variant), priced on every device (10 runs for 30 points).
func Fig2(scaleBases int) ([]Fig2Point, error) {
	var arms []Arm
	for _, v := range kernels.Variants() {
		arms = append(arms, Arm{API: SYCL, Variant: v})
	}
	var points []Fig2Point
	for _, wl := range Workloads(scaleBases) {
		cs, err := RunDataset(wl, arms...)
		if err != nil {
			return nil, err
		}
		for _, spec := range device.All() {
			ms, err := projectEach(cs, spec)
			if err != nil {
				return nil, err
			}
			for _, m := range ms {
				points = append(points, Fig2Point{
					Device:  spec.Name,
					Dataset: wl.Name,
					Variant: m.Variant,
					Seconds: m.ComparerSeconds,
				})
			}
		}
	}
	return points, nil
}

// RenderTable1 renders the Table I programming-step contrast from the two
// live frontends.
func RenderTable1() string {
	var b strings.Builder
	ocl := opencl.ProgrammingSteps()
	syc := sycl.ProgrammingSteps()
	fmt.Fprintf(&b, "Table I: programming steps — OpenCL (%d) vs SYCL (%d)\n", len(ocl), len(syc))
	n := len(ocl)
	if len(syc) > n {
		n = len(syc)
	}
	for i := 0; i < n; i++ {
		var l, r string
		if i < len(ocl) {
			l = ocl[i]
		}
		if i < len(syc) {
			r = syc[i]
		}
		fmt.Fprintf(&b, "%2d  %-72s | %s\n", i+1, l, r)
	}
	return b.String()
}

// RenderTable7 renders the device registry as Table VII.
func RenderTable7() string {
	var b strings.Builder
	b.WriteString("Table VII: major specifications of the GPUs\n")
	fmt.Fprintf(&b, "%-7s %10s %10s %10s %7s %9s %12s\n",
		"Device", "Mem (GB)", "GPU (MHz)", "Mem (MHz)", "Cores", "L2 (MB)", "BW (GB/s)")
	for _, s := range device.All() {
		fmt.Fprintf(&b, "%-7s %10d %10d %10d %7d %9d %12.0f\n",
			s.Name, s.GlobalMemBytes>>30, s.GPUClockMHz, s.MemClockMHz,
			s.Cores, s.L2CacheBytes>>20, s.PeakBWGBs)
	}
	return b.String()
}

// RenderTable8 renders Table VIII rows.
func RenderTable8(rows []Table8Row) string {
	var b strings.Builder
	b.WriteString("Table VIII: elapsed time of the OpenCL and SYCL applications (projected seconds)\n")
	fmt.Fprintf(&b, "%-8s %-7s %9s %9s %9s\n", "Dataset", "Device", "OCL", "SYCL", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-7s %9.1f %9.1f %9.2f\n", r.Dataset, r.Device, r.OpenCL, r.SYCL, r.Speedup())
	}
	return b.String()
}

// RenderTable9 renders Table IX rows.
func RenderTable9(rows []Table9Row) string {
	var b strings.Builder
	b.WriteString("Table IX: elapsed time of the optimized SYCL application (projected seconds)\n")
	fmt.Fprintf(&b, "%-8s %-7s %9s %9s %9s\n", "Dataset", "Device", "base", "opt", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-7s %9.1f %9.1f %9.2f\n", r.Dataset, r.Device, r.Base, r.Opt, r.Speedup())
	}
	return b.String()
}

// RenderTable10 renders the ISA metrics of Table X.
func RenderTable10(spec device.Spec, plen int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table X: resource usage and occupancy of the comparer kernels (device %s)\n", spec.Name)
	fmt.Fprintf(&b, "%-12s %6s %6s %6s %6s %6s\n", "Metric", "base", "opt1", "opt2", "opt3", "opt4")
	rows := isa.TableX(spec, plen)
	cols := func(f func(isa.Metrics) int) []any {
		out := make([]any, 0, len(rows))
		for _, r := range rows {
			out = append(out, f(r))
		}
		return out
	}
	fmt.Fprintf(&b, "%-12s %6d %6d %6d %6d %6d\n", append([]any{"Code length"}, cols(func(m isa.Metrics) int { return m.CodeBytes })...)...)
	fmt.Fprintf(&b, "%-12s %6d %6d %6d %6d %6d\n", append([]any{"#SGPRs"}, cols(func(m isa.Metrics) int { return m.SGPRs })...)...)
	fmt.Fprintf(&b, "%-12s %6d %6d %6d %6d %6d\n", append([]any{"#VGPRs"}, cols(func(m isa.Metrics) int { return m.VGPRs })...)...)
	fmt.Fprintf(&b, "%-12s %6d %6d %6d %6d %6d\n", append([]any{"Occupancy"}, cols(func(m isa.Metrics) int { return m.Occupancy })...)...)
	b.WriteString("(paper's #SGPRs/#VGPRs rows are swapped relative to its prose; we report the corrected labels)\n")
	return b.String()
}

// RenderFig2 renders the Fig. 2 series as text bars grouped by dataset and
// device.
func RenderFig2(points []Fig2Point) string {
	var b strings.Builder
	b.WriteString("Fig. 2: comparer kernel time across optimizations (projected seconds)\n")
	byGroup := make(map[string][]Fig2Point)
	var order []string
	for _, p := range points {
		key := p.Dataset + " / " + p.Device
		if _, ok := byGroup[key]; !ok {
			order = append(order, key)
		}
		byGroup[key] = append(byGroup[key], p)
	}
	for _, key := range order {
		fmt.Fprintf(&b, "%s\n", key)
		group := byGroup[key]
		var max float64
		for _, p := range group {
			if p.Seconds > max {
				max = p.Seconds
			}
		}
		for _, p := range group {
			bar := int(p.Seconds / max * 48)
			fmt.Fprintf(&b, "  %-5s %7.1fs %s\n", p.Variant, p.Seconds, strings.Repeat("#", bar))
		}
	}
	return b.String()
}
