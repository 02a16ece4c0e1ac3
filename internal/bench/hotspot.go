package bench

import (
	"fmt"
	"strings"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// HotspotRow reproduces the profiling analysis of §IV.B for one (device,
// dataset) cell: how the projected elapsed time splits between the two
// kernels and the host, supporting the paper's observations that the
// comparer "accounts for approximately 98% of the total kernel execution
// time and 50% to 80% of the elapsed time".
type HotspotRow struct {
	Device  string
	Dataset string

	FinderSeconds   float64
	ComparerSeconds float64
	HostSeconds     float64
}

// Elapsed returns the total projected time.
func (r HotspotRow) Elapsed() float64 {
	return r.FinderSeconds + r.ComparerSeconds + r.HostSeconds
}

// ComparerShareOfKernels returns the comparer's fraction of kernel time.
func (r HotspotRow) ComparerShareOfKernels() float64 {
	return r.ComparerSeconds / (r.ComparerSeconds + r.FinderSeconds)
}

// KernelShareOfElapsed returns the kernels' fraction of elapsed time.
func (r HotspotRow) KernelShareOfElapsed() float64 {
	return (r.ComparerSeconds + r.FinderSeconds) / r.Elapsed()
}

// Hotspot profiles the baseline SYCL application on every device and
// dataset: one run per dataset, priced on every device.
func Hotspot(scaleBases int) ([]HotspotRow, error) {
	var rows []HotspotRow
	for _, wl := range Workloads(scaleBases) {
		cs, err := RunDataset(wl, Arm{API: SYCL, Variant: kernels.Base})
		if err != nil {
			return nil, err
		}
		for _, spec := range device.All() {
			m, err := Project(cs[0], spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, HotspotRow{
				Device:          spec.Name,
				Dataset:         wl.Name,
				FinderSeconds:   m.FinderSeconds,
				ComparerSeconds: m.ComparerSeconds,
				HostSeconds:     m.HostSeconds,
			})
		}
	}
	return rows, nil
}

// RenderHotspot renders the profiling summary.
func RenderHotspot(rows []HotspotRow) string {
	var b strings.Builder
	b.WriteString("Hotspot profile of the SYCL application (§IV.B; projected seconds)\n")
	fmt.Fprintf(&b, "%-8s %-7s %8s %9s %7s %8s %14s %14s\n",
		"Dataset", "Device", "finder", "comparer", "host", "elapsed", "cmp/kernels", "kernels/elapsed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-7s %8.2f %9.2f %7.2f %8.2f %13.1f%% %13.1f%%\n",
			r.Dataset, r.Device, r.FinderSeconds, r.ComparerSeconds, r.HostSeconds,
			r.Elapsed(), 100*r.ComparerShareOfKernels(), 100*r.KernelShareOfElapsed())
	}
	b.WriteString("(paper: comparer ~98% of kernel time; kernels 50-80% of elapsed)\n")
	return b.String()
}
