// Package serve is casoffinderd: the off-target search service. It keeps
// genome artifacts and engines resident across requests — the two wins the
// one-shot CLI throws away on every run (the artifact subsystem's ~37x
// time-to-first-hit, the batch comparer's ~3.2x multi-pattern pass) — and
// wraps them in production-grade request robustness:
//
//   - one queue in front of the engine: per-tenant token-bucket quotas and
//     deadline-aware rejection at the front gates (admission.go), then a
//     bounded wait in a batch of requests that share (genome, pattern) and
//     run as one genome pass once a pass slot is free, demultiplexed back to
//     byte-identical per-request streams (sched.go). Under overload the
//     newest lowest-priority waiter sheds with 429 + Retry-After instead of
//     queueing unboundedly. No config or request field opts a request out
//     of that path or reshapes its pass;
//   - per-request lifecycle robustness: context deadlines threaded into
//     Engine.Stream, panic isolation per request, graceful degradation —
//     a pass that retried, failed over or quarantined chunks completes
//     with a degraded trailer rather than a dropped connection — a write
//     deadline per flush, so a client that stops reading leaves its pass
//     instead of holding it, and a drain path that finishes in-flight
//     streams before exit;
//   - SLO observability: /metrics (Prometheus text), /healthz, /readyz
//     (ready only once genomes are resident and engines warmed), and a
//     span per request phase on the shared obs.Tracer.
//
// Responses stream as NDJSON: one hit object per line (search.AppendHitJSON)
// terminated by exactly one Trailer object.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
)

// Config assembles a Server.
type Config struct {
	// Engine executes genome passes. The CPU engine streams concurrently;
	// the simulator engines share mutable device state, so set
	// SerializePasses with them.
	Engine search.Engine
	// SerializePasses gives the scheduler one pass slot, whatever
	// Limits.MaxInflight says. Required for the simulator engines and for
	// resilience-report capture.
	SerializePasses bool
	// Genomes are the resident assemblies, by request name. A request that
	// omits the genome field gets the one resident genome, and a 400 when
	// several are resident.
	Genomes map[string]*genome.Assembly
	// Limits bounds the scheduler; zero fields take the package defaults.
	Limits Limits
	// Metrics and Trace receive the service's counters and request spans;
	// nil disables each at zero cost.
	Metrics *obs.Metrics
	Trace   *obs.Tracer

	// now overrides the clock in tests.
	now func() time.Time
}

// Server is the HTTP search service.
type Server struct {
	cfg     Config
	lim     Limits
	sched   *scheduler
	metrics *obs.Metrics
	// defaultGenome names the genome of requests that omit one: the only
	// resident genome, or empty when several are resident.
	defaultGenome string

	// report is the resilience report of the pass that ran last; one pass
	// slot (SerializePasses) keeps it the running pass's.
	reportMu sync.Mutex
	report   *pipeline.Report

	ready    atomic.Bool
	draining atomic.Bool
	// drainMu makes the accepting check and the inflight.Add atomic with
	// respect to Drain, so no request slips in after Drain flipped draining
	// and started waiting on a zero counter.
	drainMu  sync.Mutex
	inflight sync.WaitGroup
	reqSeq   atomic.Int64
}

// New builds a Server. The genomes must already be loaded (for artifacts,
// mmapped); readiness still waits for Warmup.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: config needs an engine")
	}
	if len(cfg.Genomes) == 0 {
		return nil, errors.New("serve: config needs at least one genome")
	}
	s := &Server{cfg: cfg, lim: cfg.Limits.withDefaults(), metrics: cfg.Metrics}
	if cfg.SerializePasses {
		s.lim.MaxInflight = 1
	}
	if len(cfg.Genomes) == 1 {
		for name := range cfg.Genomes {
			s.defaultGenome = name
		}
	}
	s.sched = newScheduler(s.lim, coalesceWindow, cfg.now, s.runPass, cfg.Metrics)
	return s, nil
}

// ReportSink returns the callback to install as the engine's
// Resilience.OnReport, so degraded passes surface in response trailers.
func (s *Server) ReportSink() func(*pipeline.Report) {
	return func(rep *pipeline.Report) {
		s.reportMu.Lock()
		s.report = rep
		s.reportMu.Unlock()
	}
}

// takeReport claims the report of the pass that just ran.
func (s *Server) takeReport() *pipeline.Report {
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	rep := s.report
	s.report = nil
	return rep
}

// runPass executes one genome pass — the scheduler's passFunc.
func (s *Server) runPass(ctx context.Context, genomeName string, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error) {
	asm := s.cfg.Genomes[genomeName]
	if asm == nil {
		return nil, apiErrorf(http.StatusNotFound, "unknown-genome", "no resident genome named %q", genomeName)
	}
	s.takeReport() // clear any stale slot
	err := s.cfg.Engine.Stream(ctx, asm, req, emit)
	rep := s.takeReport()
	if rep == nil {
		var pe *pipeline.PartialError
		if errors.As(err, &pe) {
			rep = pe.Report
		}
	}
	return rep, err
}

// Warmup resolves everything first-request latency would otherwise pay:
// the engine's kernel tuning (and for the simulator engines, program
// builds) via one tiny synthetic pass. The resident genomes were loaded —
// and artifact payloads mapped — at construction. Call it before SetReady:
// no request runs a pass until then.
func (s *Server) Warmup(ctx context.Context) error {
	seq := &genome.Sequence{Name: "warmup", Data: make([]byte, 64)}
	for i := range seq.Data {
		seq.Data[i] = "ACGT"[i%4]
	}
	asm := &genome.Assembly{Name: "warmup", Sequences: []*genome.Sequence{seq}}
	req := &pipeline.Request{
		Pattern: "NNNNNNNNNNNGG",
		Queries: []pipeline.Query{{Guide: "NNNNNNNNNNNNN", MaxMismatches: 0}},
	}
	return s.cfg.Engine.Stream(ctx, asm, req, func(pipeline.Hit) error { return nil })
}

// SetReady flips /readyz; the daemon calls it after Warmup succeeds.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Genomes lists the resident genome names, sorted.
func (s *Server) Genomes() []string {
	names := make([]string, 0, len(s.cfg.Genomes))
	for name := range s.cfg.Genomes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.WritePrometheus(w)
	})
	return mux
}

// Drain stops admission and waits for in-flight streams: queued requests
// shed with 503 + Retry-After, running passes finish and flush their
// trailers. Returns ctx.Err() if the drain deadline expires first.
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false) // readiness fails first so balancers stop routing
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.sched.Drain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// status labels for the terminal request counter.
const (
	statusOK       = "ok"
	statusDegraded = "degraded"
	statusRejected = "rejected"
	statusError    = "error"
	statusCanceled = "canceled"
)

// finish counts a request's terminal outcome.
func (s *Server) finish(status string) {
	s.metrics.Count(obs.L(obs.MetricServeRequests, "status", status), 1)
}

// handleSearch is POST /search: decode → gates → wait in a batch → pass →
// demux → trailer. Every exit path either writes a typed error envelope (before
// streaming) or a trailer object (after), and a per-request panic is
// isolated to a 500 for that request alone.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	reqID := int(s.reqSeq.Add(1))
	var out *hitStream // set once the request is decoded
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.Count(obs.MetricServePanics, 1)
			s.finish(statusError)
			s.cfg.Trace.Instant("serve", "panic", reqID,
				obs.Attr{Key: "panic", Value: fmt.Sprint(rec)})
			if out == nil || !out.started {
				writeAPIError(w, apiErrorf(http.StatusInternalServerError, "panic",
					"internal error handling request"), 0)
			}
		}
	}()

	if r.Method != http.MethodPost {
		writeAPIError(w, apiErrorf(http.StatusMethodNotAllowed, "method", "POST /search"), 0)
		return
	}
	s.drainMu.Lock()
	if !s.ready.Load() || s.draining.Load() {
		s.drainMu.Unlock()
		s.finish(statusRejected)
		code := "not-ready"
		if s.draining.Load() {
			code = "draining"
		}
		writeAPIError(w, apiErrorf(http.StatusServiceUnavailable, code, "server is not accepting searches"), 1)
		return
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	defer s.inflight.Done()

	// Bound the body read, not the stream (a writer without deadline support
	// reads unbounded). A rejected body keeps the deadline, so the server's
	// discard of the unread rest cannot block on a stalled client.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	body := http.MaxBytesReader(w, r.Body, s.lim.MaxBodyBytes)
	sreq, preq, apiErr := DecodeRequest(body, s.lim)
	if apiErr != nil {
		s.finish(statusRejected)
		writeAPIError(w, apiErr, 0)
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	genomeName := sreq.Genome
	if genomeName == "" {
		genomeName = s.defaultGenome
	}
	if genomeName == "" {
		s.finish(statusRejected)
		writeAPIError(w, apiErrorf(http.StatusBadRequest, "genome-required",
			"several genomes are resident (%v); name one", s.Genomes()), 0)
		return
	}
	if s.cfg.Genomes[genomeName] == nil {
		s.finish(statusRejected)
		writeAPIError(w, apiErrorf(http.StatusNotFound, "unknown-genome",
			"no resident genome named %q (have %v)", genomeName, s.Genomes()), 0)
		return
	}
	tenant := r.Header.Get("X-API-Key")
	if tenant == "" {
		tenant = "anonymous"
	}
	priority, _ := ParsePriority(sreq.Priority) // validated by DecodeRequest

	ctx := r.Context()
	if sreq.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sreq.TimeoutMs)*time.Millisecond)
		defer cancel()
	}

	// Stream. From the first hit on, failures become trailers, never
	// status rewrites or dropped connections.
	out = newHitStream(w, rc)
	defer out.stop()
	m := &member{priority: priority, queries: preq.Queries, emit: func(h pipeline.Hit) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return out.writeHit(preq, h)
	}}
	rep, passErr, emitErr := s.sched.Join(ctx, tenant, coalKey{genome: genomeName, pattern: preq.Pattern}, m)
	// The pass may still call emit for a member that left it; stop fences
	// those writes off, leaving the handler the response's only writer.
	out.stop()
	var rej *RejectError
	if errors.As(passErr, &rej) {
		s.finish(statusRejected)
		s.cfg.Trace.Instant("serve", "reject", reqID,
			obs.Attr{Key: "reason", Value: rej.Reason})
		writeAPIError(w, apiErrorf(rej.Status, "rejected:"+rej.Reason,
			"request rejected (%s); retry after %v", rej.Reason, rej.RetryAfter),
			retryAfterSeconds(rej.RetryAfter))
		return
	}
	if !m.started.IsZero() {
		queued := m.started.Sub(m.joined)
		s.metrics.Observe(obs.MetricServeQueueSeconds, queued.Seconds())
		s.cfg.Trace.Complete("serve", "queue", reqID, m.joined, queued,
			obs.Attr{Key: "tenant", Value: tenant})
		streamed := time.Since(m.started)
		s.metrics.Observe(obs.MetricServeStreamSeconds, streamed.Seconds())
		s.metrics.Count(obs.MetricServeHits, out.hits)
		s.cfg.Trace.Complete("serve", "stream", reqID, m.started, streamed,
			obs.Attr{Key: "hits", Value: strconv.FormatInt(out.hits, 10)})
	}
	if errors.Is(out.err, os.ErrDeadlineExceeded) {
		// The client stopped reading: its write missed writeTimeout and the
		// member left its pass.
		s.metrics.Count(obs.MetricServeWriteTimeouts, 1)
		s.cfg.Trace.Instant("serve", "write-timeout", reqID)
	}

	if emitErr != nil && !errors.Is(emitErr, context.DeadlineExceeded) {
		// Our own write to this client failed: the connection is gone and
		// there is nowhere to put a trailer.
		s.finish(statusCanceled)
		return
	}
	s.writeOutcome(out, rep, firstErr(emitErr, passErr))
}

// bodyReadTimeout bounds the delivery of a search body (408 body-timeout
// past it). A variable so tests can shorten it.
var bodyReadTimeout = 10 * time.Second

// writeTimeout bounds each write of a response stream: a client that takes
// no bytes for this long fails its member's emit, and the member leaves its
// pass. A variable so tests can shorten it.
var writeTimeout = 10 * time.Second

// errStreamStopped is what emit returns once the handler stopped the
// stream.
var errStreamStopped = errors.New("serve: response stream stopped")

// flushDelay bounds how long a hit after the first may sit in the response
// buffer before it is pushed to the client.
const flushDelay = time.Millisecond

// hitStream is a response's NDJSON writer and its one flush policy: the
// first hit is pushed to the client at
// once (time-to-first-hit is a hit's encode plus one flush), every later hit
// within flushDelay of being written even if no further hit ever follows.
// Flushing per hit instead costs two syscall-bound flushes a line and, on an
// output-heavy request, more than the scan that produced the hits. Each
// flush interval arms one write deadline, writeTimeout ahead, which bounds
// every write until that flush.
//
// emit calls writeHit from the pass goroutine and the delayed flush runs on
// a timer goroutine, so mu guards every touch of the ResponseWriter from the
// first hit until stop; after stop the handler goroutine owns it again.
type hitStream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	flusher http.Flusher // nil when the ResponseWriter cannot flush
	bw      *bufio.Writer

	mu      sync.Mutex
	started bool        // the 200 header is out
	hits    int64       // lines written
	timer   *time.Timer // the pending delayed flush, nil when none is
	// err is the first write or flush failure, or errStreamStopped after
	// stop; every later writeHit returns it at once.
	err error
}

func newHitStream(w http.ResponseWriter, rc *http.ResponseController) *hitStream {
	flusher, _ := w.(http.Flusher)
	return &hitStream{w: w, rc: rc, flusher: flusher, bw: bufio.NewWriter(w)}
}

// writeHit appends one hit line to the response and schedules its flush.
func (o *hitStream) writeHit(req *pipeline.Request, h pipeline.Hit) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return o.err
	}
	first := !o.started
	if first {
		o.w.Header().Set("Content-Type", "application/x-ndjson")
		o.w.WriteHeader(http.StatusOK)
		o.started = true
	}
	if first || o.timer == nil {
		o.armDeadline()
	}
	if o.err = search.WriteHitJSON(o.bw, req, h); o.err != nil {
		return o.err
	}
	o.hits++
	switch {
	case first:
		o.flushLocked()
	case o.timer == nil:
		o.timer = time.AfterFunc(flushDelay, o.delayedFlush)
	}
	return o.err
}

// armDeadline sets the write deadline writeTimeout from now. A writer
// without deadline support writes unbounded.
func (o *hitStream) armDeadline() {
	_ = o.rc.SetWriteDeadline(time.Now().Add(writeTimeout))
}

// delayedFlush is the timer's callback.
func (o *hitStream) delayedFlush() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.timer = nil
	if o.err == nil {
		o.flushLocked()
	}
}

// flushLocked pushes everything buffered to the client.
func (o *hitStream) flushLocked() {
	if o.err = o.bw.Flush(); o.err == nil && o.flusher != nil {
		o.flusher.Flush()
	}
}

// stop ends the stream's writes from other goroutines: once it returns,
// writeHit returns at once and no timer callback touches the ResponseWriter
// (one already waiting on mu finds the stream stopped). Lines still
// buffered go out with the trailer. Idempotent.
func (o *hitStream) stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil {
		o.err = errStreamStopped
	}
	if o.timer != nil {
		o.timer.Stop()
	}
}

// retryAfterSeconds renders a rejection's hint as the whole-seconds
// Retry-After header value: the ceiling of the duration, floored at one
// second (RFC 9110 allows zero, but a zero hint invites an immediate retry
// of a request we just shed). Truncate-plus-one is not a ceiling — it
// rendered the default 1s hint as "2", silently doubling every advertised
// backoff and halving the daemon's recovery throughput under burst.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// firstErr prefers the member's own terminal condition (a deadline that
// fired inside emit) over the shared pass outcome.
func firstErr(emitErr, passErr error) error {
	if emitErr != nil {
		return emitErr
	}
	return passErr
}

// writeOutcome terminates the response: a trailer when the stream started
// (or completed cleanly), a typed error envelope when nothing was written
// yet and the pass failed outright.
func (s *Server) writeOutcome(out *hitStream, rep *pipeline.Report, passErr error) {
	degraded := rep != nil && rep.Degraded()
	var pe *pipeline.PartialError
	partial := errors.As(passErr, &pe)

	if passErr == nil || partial {
		// Clean or gracefully degraded: both complete with done:true. A
		// quarantined chunk is reported, never a dropped request.
		tr := Trailer{Done: true, Hits: out.hits, Degraded: degraded || partial}
		if rep != nil {
			tr.Retries, tr.Failovers, tr.WatchdogKills = rep.Retries, rep.Failovers, rep.WatchdogKills
			tr.Quarantined = len(rep.Quarantined)
		}
		if tr.Degraded {
			s.metrics.Count(obs.MetricServeDegraded, 1)
			s.finish(statusDegraded)
		} else {
			s.finish(statusOK)
		}
		out.writeTrailer(http.StatusOK, tr)
		return
	}

	status, body := errorBodyOf(passErr)
	if body == nil { // cancellation: client is gone
		s.finish(statusCanceled)
		return
	}
	s.finish(statusError)
	var ae *APIError
	if errors.As(passErr, &ae) {
		status, body = ae.Status, &ErrorBody{Code: ae.Code, Message: ae.Message}
	}
	out.writeTrailer(status, Trailer{Done: false, Hits: out.hits, Degraded: degraded, Error: body})
}

// writeTrailer emits the final NDJSON object. When nothing streamed yet the
// status code is still ours to choose; afterwards the trailer itself is the
// only channel, so it rides on the already-open 200 stream, behind any hit
// lines still buffered. The handler calls it after stop.
func (o *hitStream) writeTrailer(status int, tr Trailer) {
	o.armDeadline()
	if !o.started {
		if tr.Error != nil && status != http.StatusOK {
			writeAPIError(o.w, &APIError{Status: status, Code: tr.Error.Code, Message: tr.Error.Message}, 0)
			return
		}
		o.w.Header().Set("Content-Type", "application/x-ndjson")
		o.w.WriteHeader(http.StatusOK)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		return
	}
	o.bw.Write(data)
	o.bw.WriteByte('\n')
	o.bw.Flush()
}
