// Command casoffinderd serves off-target searches over HTTP. Where the
// casoffinder CLI pays genome loading and engine tuning on every invocation,
// the daemon loads its genomes once — artifacts are mmapped zero-copy and
// checked against their checksums before it listens — warms the engine
// once, and then answers searches from resident state, streaming hits as
// NDJSON.
//
// Usage:
//
//	casoffinderd [-listen 127.0.0.1:8077]
//	             -genome [name=]path | -artifact [name=]genome.cart  (repeatable)
//	             [-engine cpu|opencl|sycl] [-device MI100]
//	             [-workers N]
//	             [-fault-rate 0.05 -fault-seed 42 -fault-site S]
//	             [-watchdog 5s] [-max-retries N]
//	             [-max-inflight 4 (cpu engine)] [-max-queue 64]
//	             [-max-body-bytes N] [-max-guides N]
//	             [-quota-rate R] [-quota-burst B]
//	             [-drain-timeout 30s] [-trace trace.json]
//
// Endpoints:
//
//	POST /search   NDJSON hit stream terminated by a trailer object
//	GET  /healthz  liveness (always 200 while the process runs)
//	GET  /readyz   readiness (200 only once genomes are resident and the
//	               engine is warmed; 503 during startup and drain)
//	GET  /metrics  Prometheus text exposition of the serve counters
//
// One queue sits in front of the engine. -quota-rate enforces a per-tenant
// token bucket keyed by the X-API-Key header; an accepted request then waits
// in a batch with the requests that share its (genome, pattern), and the
// batch runs as one genome pass once its 2 ms window has passed and a pass
// slot is free: -max-inflight slots on the cpu engine, one on a simulator
// engine. While every slot is busy the batch keeps taking members. Requests
// beyond -max-queue waiting shed with 429 + Retry-After (newest
// lowest-priority first). Per-request output is byte-identical to an
// uncoalesced run, and no flag or request field changes that path. The simulator engines pick their comparer
// kernel with the occupancy autotuner; the daemon prints no kernel profile,
// so the CLI's -variant has no counterpart here.
//
// The engine flags are the CLI's (search.Options). A simulator engine always
// runs under the recovery policy, so a degraded pass (retries, failovers,
// quarantined chunks) completes its response and reports the degradation in
// the trailer rather than dropping the connection. On SIGINT/SIGTERM the
// daemon stops admitting, sheds its queue with 503s, drains in-flight
// streams up to -drain-timeout, then exits.
//
// Exit codes: 0 on clean shutdown, 1 on a runtime error, 2 on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
	"casoffinder/internal/search"
	"casoffinder/internal/serve"
)

// Exit codes, matching the CLI's taxonomy (the daemon has no partial runs —
// partial results are per-request trailers, not process outcomes).
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

// usageError marks a command-line mistake so main exits with exitUsage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return exitOK
	}
	var ue usageError
	if errors.As(err, &ue) {
		return exitUsage
	}
	return exitRuntime
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "casoffinderd:", err)
	}
	os.Exit(exitCode(err))
}

// run builds the daemon from args and serves until ctx is cancelled.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	d, err := setup(args, stderr)
	if err != nil {
		return err
	}
	return d.serve(ctx, stderr)
}

// repeatFlag collects a repeatable string flag.
type repeatFlag []string

func (f *repeatFlag) String() string     { return strings.Join(*f, ",") }
func (f *repeatFlag) Set(v string) error { *f = append(*f, v); return nil }

// Connection timeouts against slow-loris clients. No server-wide ReadTimeout:
// a read deadline armed while a response streams cancels it on expiry, so
// the search body has its own deadline in package serve.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// daemon is the assembled service: resident genomes, a warmed engine behind
// the serve.Server, and the HTTP front end bound to its listener.
type daemon struct {
	srv          *serve.Server
	http         *http.Server
	ln           net.Listener
	drainTimeout time.Duration
	tracer       *obs.Tracer
	tracePath    string
}

// addr returns the bound listen address (useful with -listen :0).
func (d *daemon) addr() string { return d.ln.Addr().String() }

// setup parses flags, loads every genome, builds the engine and binds the
// listener. It does not warm the engine — serve does, so /healthz and
// /readyz respond while warmup runs.
func setup(args []string, stderr io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("casoffinderd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8077", "listen address")
	var genomes, artifacts repeatFlag
	fs.Var(&genomes, "genome", "FASTA genome file or directory to keep resident, optionally name=path (repeatable)")
	fs.Var(&artifacts, "artifact", ".cart genome artifact to mmap resident, optionally name=path (repeatable)")
	var opts search.Options
	opts.Register(fs)
	maxInflight := fs.Int("max-inflight", 0, "concurrent genome passes (cpu engine; 0 = default)")
	maxQueue := fs.Int("max-queue", 0, "requests waiting for their genome pass (0 = default)")
	maxBodyBytes := fs.Int64("max-body-bytes", 0, "largest accepted request body (0 = default)")
	maxGuides := fs.Int("max-guides", 0, "most guides in one request (0 = default)")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant requests per second, keyed by X-API-Key (0 = quotas off)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-tenant burst size (0 = default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight streams")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the daemon's request spans on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, usageError{err}
	}
	if fs.NArg() != 0 {
		return nil, usageError{fmt.Errorf("unexpected argument %q (genomes are loaded via -genome/-artifact)", fs.Arg(0))}
	}
	if len(genomes)+len(artifacts) == 0 {
		return nil, usageError{fmt.Errorf("no genomes: pass at least one -genome or -artifact")}
	}
	// A negative limit or deadline would silently read as "default" or
	// "off", a NaN quota passes every comparison, a bucket that holds
	// less than one whole token admits nothing, and a burst without a rate
	// would be ignored.
	for _, name := range []string{"max-inflight", "max-queue", "max-body-bytes",
		"max-guides", "quota-rate", "quota-burst", "drain-timeout"} {
		switch v := fs.Lookup(name).Value.String(); {
		case strings.HasPrefix(v, "-"):
			return nil, usageError{fmt.Errorf("-%s %s is negative", name, v)}
		case v == "NaN":
			return nil, usageError{fmt.Errorf("-%s %s is not a number", name, v)}
		case name == "quota-burst" && *quotaBurst > 0 && *quotaBurst < 1:
			return nil, usageError{fmt.Errorf("-%s %s is below 1: the bucket would never hold a whole token", name, v)}
		case name == "quota-burst" && *quotaBurst > 0 && *quotaRate == 0:
			return nil, usageError{fmt.Errorf("-%s %s needs -quota-rate: quotas are off without a rate", name, v)}
		}
	}
	metrics := obs.NewMetrics() // always on: /metrics is part of the service
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	opts.Variant = "auto" // no -variant here: the simulator engines always autotune
	eng, res, err := opts.Open(tracer, metrics)
	if err != nil {
		return nil, usageError{err}
	}
	// Only a simulator engine has a recovery policy, and its device state is
	// mutable: its passes run one at a time, whatever -max-inflight says.
	if res != nil && *maxInflight != 0 {
		return nil, usageError{fmt.Errorf("-max-inflight needs the cpu engine, not %q: a simulator engine has one pass slot", opts.Engine)}
	}

	resident, err := loadGenomes(genomes, artifacts, stderr)
	if err != nil {
		return nil, err
	}

	srv, err := serve.New(serve.Config{
		Engine:          eng,
		SerializePasses: res != nil,
		Genomes:         resident,
		Limits: serve.Limits{
			MaxInflight:  *maxInflight,
			MaxQueue:     *maxQueue,
			MaxBodyBytes: *maxBodyBytes,
			MaxGuides:    *maxGuides,
			QuotaRate:    *quotaRate,
			QuotaBurst:   *quotaBurst,
		},
		Metrics: metrics,
		Trace:   tracer,
	})
	if err != nil {
		return nil, err
	}
	if res != nil {
		// Degraded passes surface in response trailers via the report sink.
		res.OnReport = srv.ReportSink()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return nil, err
	}
	return &daemon{
		srv:          srv,
		http:         &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout},
		ln:           ln,
		drainTimeout: *drainTimeout,
		tracer:       tracer,
		tracePath:    *tracePath,
	}, nil
}

// serve runs the daemon until ctx cancels, then drains: admission refuses,
// queued requests shed with 503, in-flight streams finish (bounded by the
// drain timeout) before the listener closes.
func (d *daemon) serve(ctx context.Context, stderr io.Writer) error {
	errc := make(chan error, 1)
	go func() { errc <- d.http.Serve(d.ln) }()

	// Warm while already answering /healthz and a not-ready /readyz.
	if err := d.srv.Warmup(ctx); err != nil {
		d.http.Close()
		return fmt.Errorf("warmup: %w", err)
	}
	d.srv.SetReady(true)
	fmt.Fprintf(stderr, "casoffinderd: listening on %s (genomes: %s)\n",
		d.addr(), strings.Join(d.srv.Genomes(), ", "))

	select {
	case err := <-errc:
		return err // the listener died out from under us
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "casoffinderd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	derr := d.srv.Drain(dctx)
	serr := d.http.Shutdown(dctx)
	if d.tracer != nil {
		if werr := writeTrace(d.tracePath, d.tracer); werr != nil {
			fmt.Fprintln(stderr, "casoffinderd: trace:", werr)
		}
	}
	if derr != nil {
		return fmt.Errorf("drain: %w", derr)
	}
	if serr != nil && !errors.Is(serr, context.Canceled) && !errors.Is(serr, context.DeadlineExceeded) {
		return serr
	}
	return nil
}

// writeTrace dumps the daemon's request spans as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadGenomes resolves every -genome (FASTA parse) and -artifact (zero-copy
// mmap, verified against its checksums) into the resident set. A spec is
// either a bare path — the resident name is the base name without
// extension — or name=path.
func loadGenomes(genomes, artifacts []string, stderr io.Writer) (map[string]*genome.Assembly, error) {
	resident := make(map[string]*genome.Assembly)
	add := func(name string, asm *genome.Assembly) error {
		if resident[name] != nil {
			return usageError{fmt.Errorf("two genomes named %q; disambiguate with name=path", name)}
		}
		resident[name] = asm
		return nil
	}
	for _, spec := range genomes {
		name, path := splitSpec(spec)
		asm, err := genome.LoadDir(path)
		if err != nil {
			return nil, err
		}
		if err := add(name, asm); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "casoffinderd: genome %s: %d sequences from %s\n", name, len(asm.Sequences), path)
	}
	for _, spec := range artifacts {
		name, path := splitSpec(spec)
		art, err := genome.LoadArtifact(path)
		if err != nil {
			return nil, err
		}
		// A resident genome serves every request until exit: check each
		// section's checksum once, before the daemon listens.
		if err := art.Verify(); err != nil {
			art.Close()
			return nil, fmt.Errorf("artifact %s: %w", path, err)
		}
		if err := add(name, art.Assembly()); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "casoffinderd: artifact %s: %d sequences mapped from %s\n", name, art.SeqCount(), path)
	}
	return resident, nil
}

// splitSpec parses name=path, deriving the name from the path when absent.
func splitSpec(spec string) (name, path string) {
	if i := strings.IndexByte(spec, '='); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	base := filepath.Base(strings.TrimSuffix(spec, string(os.PathSeparator)))
	return strings.TrimSuffix(base, filepath.Ext(base)), spec
}
