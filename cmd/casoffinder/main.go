// Command casoffinder searches genome assemblies for potential off-target
// sites of Cas9 RNA-guided endonucleases, reading the upstream Cas-OFFinder
// input format:
//
//	/path/to/genome_dir_or_fasta
//	NNNNNNNNNNNNNNNNNNNNNRG
//	GGCCGACCTGTCGCTGACGCNNN 5
//	...
//
// Usage:
//
//	casoffinder [-engine cpu|opencl|sycl] [-device MI100] [-variant auto]
//	            [-index build|use] [-index-file genome.cart]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-fault-rate 0.05 -fault-seed 42 -fault-site S]
//	            [-watchdog 5s] [-max-retries N] [-workers N]
//	            [-trace trace.json] [-metrics metrics.prom]
//	            [-format text|json] [-timeout 30s]
//	            [-o output.txt] input.txt
//
// The cpu engine is the production path (a bit-parallel SWAR scan over the
// 2-bit packed genome); the opencl and sycl engines run the paper's two
// applications on the device simulator and print a kernel profile to
// stderr. -cpuprofile and -memprofile write pprof profiles covering the
// search.
//
// -index persists the genome in its search-ready form: "build" parses the
// FASTA once, writes a packed artifact (2-bit words, unknown-lane masks, a
// precomputed PAM-site index for this input's pattern) next to the genome
// (or at -index-file), and searches from it; "use" loads the artifact with
// an O(header) zero-copy load, skipping FASTA parsing and packing entirely.
// Output is byte-identical either way, on every engine.
//
// -variant defaults to "auto": the occupancy autotuner (internal/tune)
// compiles every comparer variant for the target device, scores each
// (variant, work-group size) pair with the per-chunk cost model at the
// occupancy the variant achieves, and launches the argmin. A named -variant
// (base or opt1..opt4) forces that kernel and bypasses the tuner. The
// selected kernel is reported on stderr with the profile; output is
// byte-identical across all variants.
//
// The engine flags (-engine, -device, -workers and the fault and recovery
// flags) are search.Options, shared with casoffinderd. A simulator engine
// always runs under the recovery policy: transient failures retry with
// backoff (-max-retries), hung kernels are reaped by -watchdog (without it an
// injected hang fails its launch at once), and chunks the simulated device
// cannot complete fail over to the CPU engine, preserving the output
// byte-for-byte. The fault flags add seeded deterministic fault injection,
// and a degradation summary goes to stderr. The cpu engine takes neither
// -device nor the fault and recovery flags, and the simulator engines do not
// take -workers.
//
// -trace records every pipeline stage, kernel launch and resilience event
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto);
// -metrics writes the run's counters and latency histograms as the Prometheus
// text page the daemon serves. Both are off (and cost nothing) by default.
//
// -format json emits each hit as one NDJSON object (the same encoding
// casoffinderd streams) instead of the tab-separated text lines. -timeout
// bounds the whole run: an expired deadline cancels the in-flight search
// and exits 1 with a client.deadline error.
//
// Exit codes: 0 on success, 1 on a runtime error, 2 on a usage error, 3
// when quarantined chunks made the result partial.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
)

// Exit codes, so scripts can tell a bad invocation (2) from a failed run
// (1) and a run that completed with quarantined chunks (3).
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitPartial = 3
)

// usageError marks a command-line mistake so main exits with exitUsage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// exitCode maps a run error to the process exit code.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return exitOK
	}
	var ue usageError
	if errors.As(err, &ue) {
		return exitUsage
	}
	var pe *pipeline.PartialError
	if errors.As(err, &pe) {
		return exitPartial
	}
	return exitRuntime
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "casoffinder:", err)
	}
	os.Exit(exitCode(err))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("casoffinder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts search.Options
	opts.Register(fs)
	fs.StringVar(&opts.Variant, "variant", "auto", "comparer kernel variant: auto (per-device occupancy autotuner), base or opt1..opt4")
	outPath := fs.String("o", "", "output file (default stdout)")
	format := fs.String("format", "text", "hit output format: text (tab-separated) or json (NDJSON, one hit object per line)")
	timeout := fs.Duration("timeout", 0, "overall run deadline; an expired run exits 1 with a client.deadline error (0 = none)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in chrome://tracing or Perfetto)")
	metricsPath := fs.String("metrics", "", "write run metrics to this file (Prometheus text exposition)")
	indexMode := fs.String("index", "", "genome artifact mode: 'build' packs the genome (with a PAM-site index for this input's pattern) into the artifact file and searches from it; 'use' loads a previously built artifact instead of parsing FASTA")
	indexFile := fs.String("index-file", "", "genome artifact path for -index (default: the input's genome path + \".cart\")")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() != 1 {
		return usageError{fmt.Errorf("usage: casoffinder [flags] input.txt")}
	}
	switch *format {
	case "text", "json":
	default:
		return usageError{fmt.Errorf("unknown -format %q (want text or json)", *format)}
	}
	// A negative deadline would silently read as "none".
	if *timeout < 0 {
		return usageError{fmt.Errorf("-timeout %v is negative", *timeout)}
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	var metrics *obs.Metrics
	if *metricsPath != "" {
		metrics = obs.NewMetrics()
	}
	eng, _, err := opts.Open(tracer, metrics)
	if err != nil {
		return usageError{err}
	}

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			werr := writeHeapProfile(*memProfile)
			if err == nil {
				err = werr
			}
		}()
	}

	inFile, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	input, err := search.ParseInput(inFile)
	inFile.Close()
	if err != nil {
		return err
	}

	asm, err := loadAssembly(input, *indexMode, *indexFile, stderr)
	if err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	// Stream output lines as chunks complete instead of collecting the whole
	// result first; an interrupt (or -timeout) cancels the in-flight search.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	writeHit := search.WriteHit
	if *format == "json" {
		writeHit = search.WriteHitJSON
	}
	bw := bufio.NewWriter(out)
	count := 0
	runErr := eng.Stream(ctx, asm, &input.Request, func(h search.Hit) error {
		count++
		return writeHit(bw, &input.Request, h)
	})
	if ferr := bw.Flush(); runErr == nil {
		runErr = ferr
	}
	if *timeout > 0 && errors.Is(runErr, context.DeadlineExceeded) {
		// The run overran its own budget: label it with the client.deadline
		// site so the failure reads as a deliberate cutoff, and exit 1 (a
		// runtime outcome, not partial output — nothing says the missing
		// chunks would have quarantined).
		runErr = fault.New(fault.SiteDeadline, fault.Fatal,
			fmt.Errorf("run exceeded -timeout %v", *timeout))
	}
	var pe *pipeline.PartialError
	if runErr == nil || errors.As(runErr, &pe) {
		// A partial run still emitted every non-quarantined chunk's hits;
		// report the count alongside the exitPartial error.
		fmt.Fprintf(stderr, "%d sites reported\n", count)
	}

	if profiler, ok := eng.(search.Profiler); ok {
		if p := profiler.LastProfile(); p != nil {
			fmt.Fprintf(stderr, "profile: %d chunks, %d candidate sites, %d entries\n",
				p.Chunks, p.CandidateSites, p.Entries)
			for _, name := range p.KernelNames() {
				s := p.Kernels[name]
				fmt.Fprintf(stderr, "  kernel %-14s launches=%-4d %s\n", name, p.Launches[name], s.String())
			}
			printAutotune(stderr, eng.Name(), p)
			printDegradation(stderr, p)
		}
	}

	// Observability artifacts are written even on a partial run — a trace
	// of a degraded run is exactly what the flags exist for.
	if tracer != nil {
		if werr := writeFile(*tracePath, tracer.WriteChromeTrace); runErr == nil && err == nil {
			err = werr
		} else if werr != nil {
			fmt.Fprintln(stderr, "casoffinder: trace:", werr)
		}
	}
	if metrics != nil {
		if werr := writeFile(*metricsPath, metrics.WritePrometheus); runErr == nil && err == nil {
			err = werr
		} else if werr != nil {
			fmt.Fprintln(stderr, "casoffinder: metrics:", werr)
		}
	}
	if err != nil {
		return err
	}
	return runErr
}

// loadAssembly resolves the input's genome through the -index flow: the
// default parses FASTA per run; "build" parses once, packs the assembly
// (with a PAM-site shard for the input's scaffold) into the artifact file
// and searches from the resident artifact; "use" skips FASTA entirely and
// loads the artifact — an O(header) load that maps the packed payload in
// place. Either artifact path yields an assembly whose engines consume the
// resident word views, and whose hit stream is byte-identical to a FASTA
// run.
func loadAssembly(input *search.Input, mode, path string, stderr io.Writer) (*genome.Assembly, error) {
	if path == "" {
		path = strings.TrimSuffix(input.GenomeDir, string(os.PathSeparator)) + ".cart"
	}
	switch mode {
	case "":
		return genome.LoadDir(input.GenomeDir)
	case "build":
		asm, err := genome.LoadDir(input.GenomeDir)
		if err != nil {
			return nil, err
		}
		art, err := search.BuildArtifact(asm, input.Request.Pattern)
		if err != nil {
			return nil, err
		}
		if err := art.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "index: wrote %s (%d sequences, %d PAM candidates)\n", path, art.SeqCount(), art.PAMCount())
		return art.Assembly(), nil
	case "use":
		art, err := genome.LoadArtifact(path)
		if err != nil {
			return nil, err
		}
		if !art.HasPAMIndex(input.Request.Pattern) {
			fmt.Fprintf(stderr, "index: %s has no PAM index for pattern %s (built for %q); prefilter will run from the resident words\n",
				path, input.Request.Pattern, art.Pattern())
		}
		return art.Assembly(), nil
	default:
		return nil, usageError{fmt.Errorf("unknown -index mode %q (want build or use)", mode)}
	}
}

// writeFile creates path and fills it with write: the run's spans as Chrome
// trace-event JSON, or its metric registry as Prometheus text exposition.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printDegradation reports how far the run strayed from the clean path: the
// resilience counters, the asynchronous exceptions the SYCL handler saw and
// the injected fault events by site. Silent on a clean run.
func printDegradation(stderr io.Writer, p *search.Profile) {
	if p.Degraded() || p.AsyncExceptions > 0 {
		fmt.Fprintf(stderr, "degraded: retries=%d failovers=%d watchdog-kills=%d quarantined=%d async-exceptions=%d\n",
			p.Retries, p.Failovers, p.WatchdogKills, p.QuarantinedChunks, p.AsyncExceptions)
	}
	if len(p.Faults) > 0 {
		sites := make([]string, 0, len(p.Faults))
		for site := range p.Faults {
			sites = append(sites, string(site))
		}
		sort.Strings(sites)
		fmt.Fprintf(stderr, "faults:")
		for _, site := range sites {
			fmt.Fprintf(stderr, " %s=%d", site, p.Faults[fault.Site(site)])
		}
		fmt.Fprintln(stderr)
	}
}

// writeHeapProfile snapshots the heap to path after a final collection, so
// the profile reflects live allocations rather than garbage.
func writeHeapProfile(path string) error {
	return writeFile(path, func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
}

// printAutotune reports the tuner's kernel selection for the named engine.
// Silent when no tuner ran.
func printAutotune(stderr io.Writer, engine string, p *search.Profile) {
	if p.Tune == nil {
		return
	}
	fmt.Fprintf(stderr, "autotune: %-14s variant=%s wg=%d (model, %d candidates scored)\n",
		engine, p.Tune.Variant, p.Tune.WGSize, len(p.Tune.Candidates))
}
