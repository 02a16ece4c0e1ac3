// Command benchtab regenerates the paper's tables and figures from the
// simulator and cost model. Select the artifact with -table; -scale sets
// the generated assembly size the measurement runs on before projection.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"casoffinder/internal/bench"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/isa"
	"casoffinder/internal/kernels"
)

func main() {
	table := flag.String("table", "all", "artifact to regenerate: 1, migration (tables 2-6), 7, 8, 9, 10, fig2, profile, wgsweep, chunksweep, listing, debug (model terms of every Table VIII cell) or all")
	scale := flag.Int("scale", bench.DefaultScaleBases, "generated assembly bases per dataset")
	dev := flag.String("device", "MI100", "device for Table X")
	csvOut := flag.Bool("csv", false, "emit tables 8, 9 and fig2 as CSV instead of text")
	flag.Parse()

	if *csvOut {
		if err := runCSV(os.Stdout, *table, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *table, *scale, *dev); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, table string, scale int, devName string) error {
	spec, err := device.ByName(devName)
	if err != nil {
		return err
	}
	if table == "debug" {
		return debugBreakdown(w, scale)
	}
	show := func(name string) bool { return table == "all" || table == name }
	if show("1") {
		fmt.Fprintln(w, bench.RenderTable1())
	}
	if show("2-6") || table == "migration" {
		fmt.Fprintln(w, bench.RenderMigrationTables())
	}
	if show("7") {
		fmt.Fprintln(w, bench.RenderTable7())
	}
	if show("8") {
		rows, err := bench.Table8(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderTable8(rows))
	}
	if show("9") {
		rows, err := bench.Table9(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderTable9(rows))
	}
	if show("10") {
		fmt.Fprintln(w, bench.RenderTable10(spec, len(bench.ExamplePattern)))
	}
	if show("profile") {
		rows, err := bench.Hotspot(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderHotspot(rows))
	}
	if show("fig2") {
		points, err := bench.Fig2(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderFig2(points))
	}
	if table == "wgsweep" {
		points, err := bench.WGSweep(scale, []int{64, 128, 256, 512})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderWGSweep(points))
	}
	if table == "chunksweep" {
		points, err := bench.ChunkSweep([]int64{1 << 20, 16 << 20, 64 << 20, 256 << 20, 2 << 30})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderChunkSweep(points))
	}
	if table == "listing" {
		finder := isa.CompileFinder()
		fmt.Fprintf(w, "=== %s: %s ===\n", finder.Name, finder.Summary())
		for _, v := range kernels.Variants() {
			p := isa.CompileComparer(v)
			fmt.Fprintf(w, "=== %s: %s ===\n", p.Name, p.Summary())
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, isa.CompileComparer(kernels.Opt3).Listing())
	}
	return nil
}

// runCSV emits the measured artifacts as CSV for plotting.
func runCSV(w io.Writer, table string, scale int) error {
	switch table {
	case "8":
		rows, err := bench.Table8(scale)
		if err != nil {
			return err
		}
		return bench.WriteTable8CSV(w, rows)
	case "9":
		rows, err := bench.Table9(scale)
		if err != nil {
			return err
		}
		return bench.WriteTable9CSV(w, rows)
	case "fig2":
		points, err := bench.Fig2(scale)
		if err != nil {
			return err
		}
		return bench.WriteFig2CSV(w, points)
	default:
		return fmt.Errorf("-csv supports tables 8, 9 and fig2, not %q", table)
	}
}

// debugBreakdown prints the model-term decomposition of every Table VIII
// cell, used when recalibrating the timing constants.
func debugBreakdown(w io.Writer, scale int) error {
	for _, wl := range bench.Workloads(scale) {
		cs, err := bench.RunDataset(wl, bench.Arm{API: bench.OpenCL, Variant: kernels.Base}, bench.Arm{API: bench.SYCL, Variant: kernels.Base})
		if err != nil {
			return err
		}
		for _, spec := range device.All() {
			for _, c := range cs {
				m, err := bench.Project(c, spec)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-5s %-6s %-6s elapsed=%6.1f finder=%6.2f comparer=%6.2f host=%6.2f  cmp[C=%.2f B=%.2f L=%.2f Ld=%.2f G=%.2f] fnd[C=%.2f B=%.2f L=%.2f Ld=%.2f G=%.2f]\n",
					wl.Name, spec.Name, c.API, m.ElapsedSeconds(), m.FinderSeconds, m.ComparerSeconds, m.HostSeconds,
					m.ComparerBreakdown.Compute, m.ComparerBreakdown.Bandwidth, m.ComparerBreakdown.Latency,
					m.ComparerBreakdown.Leader, m.ComparerBreakdown.Group,
					m.FinderBreakdown.Compute, m.FinderBreakdown.Bandwidth, m.FinderBreakdown.Latency,
					m.FinderBreakdown.Leader, m.FinderBreakdown.Group)
			}
		}
	}
	return nil
}
