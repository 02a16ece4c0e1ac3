// Command benchmark is the repository's benchmark: six named workloads driven
// through the real binaries as a user drives them, ten end-to-end metrics
// measured with tracing off, and a separate traced pass in which the
// benchmark times its own calls into each layer's public functions. See
// README.md in this directory for the tables and the frozen surface.
//
// Usage, from the repository root:
//
//	go run ./benchmark [-workload NAME] [-seed N] [-seconds S] [-out DIR] [-keep]
//	go run ./benchmark -compare A B
//
// Without -trace each workload runs prep, the measured pass and the traced
// pass. The driver of BENCHMARK.json passes -workload, -seed, -seconds and
// -trace 0|1, which selects one pass and ends standard output with one JSON
// object.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 10

// Set-up is repeated and its median reported, so that setup_s is as steady
// as the op metrics; the traced pass reports no setup_s and sets up once.
const setupRounds = 3

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of the measured window; fixes the op counts")
	traceMode := fs.String("trace", "", "0: measured pass only, 1: traced pass only; either ends stdout with the driver's JSON line (default: both passes)")
	outDir := fs.String("out", filepath.Join(buildDir, "out"), "directory for result and trace files")
	keep := fs.Bool("keep", false, "keep the work directory")
	compare := fs.Bool("compare", false, "compare two result files or directories: -compare BASE CANDIDATE")
	manifestPath := fs.String("manifest", "BENCHMARK.json", "manifest whose bounds -compare applies")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs BASE and CANDIDATE")
			return 2
		}
		code, err := runCompare(os.Stdout, *manifestPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		return code
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traceMode != "" && *traceMode != "0" && *traceMode != "1") {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		selected = []workload{w}
	}
	if *traceMode != "" && len(selected) != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace needs -workload")
		return 2
	}

	h, err := newHarness(*keep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Daemons and the work directory go on every exit path: return, panic
	// (deferred calls run while panicking) and Ctrl-C.
	defer h.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()

	t0 := time.Now()
	if err := h.build(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	buildS := time.Since(t0).Seconds()
	env := currentEnv()

	var results []*result
	for _, w := range selected {
		r, err := runWorkload(h, w, *seed, *seconds, *traceMode, *outDir, env, buildS)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		results = append(results, r)
	}
	crossCheck(results)
	code := 0
	for _, r := range results {
		r.print(os.Stdout)
		if err := r.write(*outDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !r.Correct {
			code = 1
		}
	}
	if *traceMode != "" {
		line, err := results[0].driverLine(*traceMode == "1")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		// The driver reads correctness from the line, not the exit code.
		return 0
	}
	return code
}

// runWorkload runs one workload's passes. traceMode "0" skips the traced
// pass; "1" keeps it and shortens what comes before it — one set-up round
// and half the window — because only the per-layer numbers are reported.
func runWorkload(h *harness, w workload, seed int64, seconds int, traceMode, outDir string, env envInfo, buildS float64) (*result, error) {
	t0 := time.Now()
	rounds, ops := setupRounds, w.ops(seconds)
	if traceMode == "1" {
		rounds, ops = 1, (ops+1)/2
	}
	var m *measurement
	var err error
	switch w.Kind {
	case kindCLI:
		m, err = measureCLI(h, w, seed, ops, rounds)
	case kindDaemon:
		m, err = measureDaemon(h, w, seed, ops, rounds)
	case kindSim:
		m, err = measureSim(h, w, ops, rounds)
	}
	if err != nil {
		return nil, err
	}
	m.seed = seed
	r := newResult(m, seconds, env)
	r.EndToEnd = endToEndMetrics(m)
	if len(m.opWall) == 0 {
		return r, nil // every op failed; there is nothing to time or trace
	}
	if traceMode == "0" {
		return r, nil
	}

	// prep is everything before the traced pass that is neither set-up of
	// the system under test nor the measured window: build, input
	// generation, the oracle, verification.
	prepS := buildS + time.Since(t0).Seconds() - sum(m.setupRounds) - m.windowS
	layers, tr, err := runProbe(h, m)
	if err != nil {
		return nil, err
	}
	set(layers, "bench.prep_s", prepS)
	r.PerLayer = layers
	if err := tr.write(outDir, w.Name, seed); err != nil {
		return nil, err
	}
	if traceMode == "1" {
		// Numbers from the shortened pass are not end-to-end results; keep
		// only the ones the driver lists beside the per-layer metrics.
		for name := range r.EndToEnd {
			if def, _ := findMetric(name); def.Driver {
				delete(r.EndToEnd, name)
			}
		}
	}
	return r, nil
}

// crossCheck holds cli-cart to its contract when both CLI workloads ran in
// one process: the same seed gives the same genome and guides, so the
// artifact path's output must be byte-identical to the FASTA path's.
func crossCheck(results []*result) {
	var fasta, cart *result
	for _, r := range results {
		switch r.Workload {
		case "cli-fasta":
			fasta = r
		case "cli-cart":
			cart = r
		}
	}
	if fasta == nil || cart == nil || !fasta.Correct || !cart.Correct {
		return
	}
	if fasta.OutputDigest != cart.OutputDigest {
		cart.Correct = false
		cart.Failures = append(cart.Failures, "output differs from cli-fasta's for the same seed")
	}
}
