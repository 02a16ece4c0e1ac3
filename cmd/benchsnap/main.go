// Command benchsnap runs the repository's micro-benchmarks and records the
// parsed results as a JSON snapshot, giving the performance work a tracked
// baseline to diff against:
//
//	benchsnap                    # run and write BENCH_baseline.json
//	benchsnap -o snap.json       # write elsewhere
//	benchsnap -stat              # run and print, write nothing (CI mode)
//	benchsnap -bench 'SimLaunch|CPUScan' -benchtime 100x
//	benchsnap -compare BENCH_baseline.json   # regression gate vs a snapshot
//
// With -compare the run is diffed against the named snapshot: each benchmark
// present in both is printed with its ns/op ratio, and the process exits
// non-zero when the geometric mean of the ratios exceeds -threshold.
//
// It shells out to `go test -bench -benchmem -run ^$` for the selected
// packages and parses the standard benchmark output lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// Metrics holds the benchmark's b.ReportMetric values by unit (e.g.
	// arena-bytes, pred-ms/chunk), so ablation numbers that are not timings
	// survive into the snapshot.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the file format of BENCH_baseline.json.
type Snapshot struct {
	// Taken is when the snapshot was recorded, RFC 3339.
	Taken string `json:"taken"`
	// Bench and Benchtime echo the selection the snapshot ran with.
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Packages  []string `json:"packages"`
	Results   []Result `json:"results"`
}

func main() {
	bench := flag.String("bench", "CPUScanTwoPhase|SimLaunch|CPUEngine$|StreamVsRun|SWARVsScalar|MultiPatternBatch", "benchmark selection regexp")
	benchtime := flag.String("benchtime", "200x", "go test -benchtime value")
	out := flag.String("o", "BENCH_baseline.json", "snapshot output path")
	stat := flag.Bool("stat", false, "print the parsed results without writing the snapshot")
	pkgs := flag.String("pkgs", ".,./internal/search", "comma-separated packages to benchmark")
	compare := flag.String("compare", "", "baseline snapshot to diff against; exits 1 on regression")
	threshold := flag.Float64("threshold", 1.15, "geomean ns/op ratio above which -compare fails")
	flag.Parse()

	packages := strings.Split(*pkgs, ",")
	var results []Result
	for _, pkg := range packages {
		out, err := runBench(pkg, *bench, *benchtime)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		results = append(results, ParseBenchOutput(out)...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })

	if *compare != "" {
		if err := compareAgainst(*compare, results, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		return
	}

	if *stat {
		for _, r := range results {
			fmt.Printf("%-60s %12.0f ns/op %8d B/op %6d allocs/op\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		return
	}
	snap := Snapshot{
		Taken:     time.Now().UTC().Format(time.RFC3339),
		Bench:     *bench,
		Benchtime: *benchtime,
		Packages:  packages,
		Results:   results,
	}
	blob, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Printf("benchsnap: wrote %d results to %s\n", len(results), *out)
}

// compareAgainst diffs the current results against the snapshot at path over
// the benchmarks the two have in common, printing the per-benchmark ns/op
// ratio and failing when the geometric mean exceeds threshold. Benchmarks
// present on only one side (new or retired) are ignored, so adding a
// benchmark never breaks the gate against an older baseline.
func compareAgainst(path string, results []Result, threshold float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	var logsum float64
	n := 0
	for _, r := range results {
		b, ok := baseline[r.Name]
		if !ok || b.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		logsum += math.Log(ratio)
		n++
		fmt.Printf("%-60s %12.0f -> %12.0f ns/op  %+6.1f%%\n",
			r.Name, b.NsPerOp, r.NsPerOp, (ratio-1)*100)
	}
	if n == 0 {
		return fmt.Errorf("no benchmarks in common with %s", path)
	}
	geomean := math.Exp(logsum / float64(n))
	fmt.Printf("geomean over %d benchmarks: %.3fx (threshold %.2fx)\n", n, geomean, threshold)
	if geomean > threshold {
		return fmt.Errorf("performance regression: geomean %.3fx exceeds %.2fx", geomean, threshold)
	}
	return nil
}

func runBench(pkg, bench, benchtime string) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-benchmem", pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go test -bench %s: %w", pkg, err)
	}
	return string(out), nil
}

// ParseBenchOutput extracts the benchmark result lines from `go test -bench`
// output. Lines that are not results (headers, PASS) are skipped.
func ParseBenchOutput(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		if r, ok := ParseBenchLine(line); ok {
			results = append(results, r)
		}
	}
	return results
}

// ParseBenchLine parses one standard benchmark output line of the form
//
//	BenchmarkName-8   50   160881 ns/op   5985 B/op   10 allocs/op
//
// returning false for anything else.
func ParseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Iterations: iters}
	// Strip the -GOMAXPROCS suffix from the name.
	r.Name = fields[0]
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name = r.Name[:i]
		}
	}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false
			}
			r.NsPerOp = f
			seen = true
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "MB/s":
			r.MBPerSec, _ = strconv.ParseFloat(val, 64)
		default:
			// Any other value/unit pair is a b.ReportMetric emission.
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = f
		}
	}
	if !seen {
		return Result{}, false
	}
	return r, true
}
