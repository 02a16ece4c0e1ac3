// The one chunk executor every engine runs on: one queue of the plan's chunks
// in plan order under one mutex, and a set of slots — each a backend opened
// once and driven by one goroutine — that pull the lowest unclaimed index,
// scan it (attempt) and hand the result to the ordered-emit collector on the
// caller's goroutine. A simulator engine is one slot on its device, the CPU
// engine one slot per worker (DESIGN.md §7). No slot claims an index at or
// past the collector's cursor plus twice the slot count, so a stalled head
// chunk holds the slots back instead of letting them scan, and buffer, the
// rest of the plan.
//
// Recovery is one rule, at every slot count. With a Policy set, a transient
// failure retries on the same slot with the policy's seeded backoff; any
// other failure — or an exhausted budget — means the chunk has exhausted its
// slot. The chunk then fails over on that slot: one attempt on the slot's
// own fallback backend (the policy's Fallback, opened the first time the slot
// needs it), quarantine if that fails too, and the slot keeps serving the
// queue. A slot that cannot open its backend fails the run. A nil Policy is
// fail-fast: the first chunk error aborts the run.
//
// Determinism contract. Chunk indices are assigned at plan time and the
// collector emits settled chunks in plan order, so the hit stream does not
// depend on which slot ran which chunk. Slots i < min(len(Slots), chunks)
// open, eagerly, and only they run, so which backends exist is a function of
// the plan. Each backend is driven by exactly one goroutine, so a one-slot
// run's backend calls — and with them a seeded fault schedule, the report
// and the fault log — replay exactly; with several slots, which slot meets
// which chunk (and so which slot fails it over) is scheduling.

package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
)

// Slot is one backend factory, driven by one goroutine whose trace track is
// "<track>/worker<i>".
type Slot struct {
	// Open builds the slot's backend for the compiled plan. It is called at
	// most once per run, on the slot's own goroutine.
	Open func(plan *Plan) (Backend, error)
}

// Executor runs requests across a set of slots.
type Executor struct {
	// Slots are the backends that pull chunks; at least one is required.
	Slots []Slot
	// Policy enables recovery (see the file comment). Nil means fail-fast.
	// Its OnReport, when set, receives the run's report too.
	Policy *Resilience
	// Trace and Metrics observe the run: scan and phase spans land on each
	// slot's track with its recovery events (retry, watchdog-kill,
	// failover, quarantine) as instants, emit spans on "<track>/collect",
	// a slot's fallback attempts on "<slot>/fallback". The registry gets the
	// queue-depth gauge, the hit and emitted-chunk counters and the
	// stage/scan histograms live; recovery events are counted in the Report
	// only, for whoever owns the run's ledger to publish.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	// Track prefixes the trace rows; empty means "pipeline".
	Track string
	// OnReport, when set, receives the run report exactly once, after the
	// last chunk settles and every backend has closed.
	OnReport func(*Report)
}

func (x *Executor) track() string {
	if x.Track != "" {
		return x.Track
	}
	return "pipeline"
}

// Stream compiles req and executes it over asm, calling emit sequentially
// for every hit: hits arrive grouped by chunk in plan order, sorted within
// each chunk. Validation and compilation are spans on the track. A cancelled
// context or an emit error aborts the run and is returned; a run that
// quarantined chunks returns a *PartialError after emitting everything else.
func (x *Executor) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	t0 := time.Now()
	if err := req.Validate(); err != nil {
		return err
	}
	x.Trace.Complete(x.track(), "validate", -1, t0, time.Since(t0))
	t0 = time.Now()
	plan, err := compileValidated(req)
	x.Trace.Complete(x.track(), "compile", -1, t0, time.Since(t0))
	if err != nil {
		return err
	}
	plan.Artifact = asm.Artifact()
	return x.execute(ctx, plan, asm, emit)
}

// settled is one chunk's terminal result, sent to the collector.
type settled struct {
	index       int
	hits        []Hit
	quarantined bool
}

// run is the shared state of one execution.
type run struct {
	x        *Executor
	plan     *Plan
	chunks   []*genome.Chunk
	ctx      context.Context
	cancel   context.CancelFunc
	observed bool
	watchdog time.Duration // per-phase deadline of every attempt; 0 = none
	// attempts counts scan attempts per chunk; an entry belongs to whoever
	// holds the chunk's claim.
	attempts []int

	mu   sync.Mutex
	cond *sync.Cond // signalled when the window moves or the run may be over
	// The queue: next is the lowest index never claimed. cursor is the
	// collector's: every chunk below it has been emitted, and no index at or
	// past cursor+window is claimed.
	next     int
	cursor   int
	window   int
	firstErr error
	closeErr error
	rep      *Report

	results chan settled
}

func (x *Executor) execute(ctx context.Context, plan *Plan, asm *genome.Assembly, emit func(Hit) error) error {
	if len(x.Slots) == 0 {
		return errors.New("pipeline: no slots")
	}
	chunks, err := plan.Chunker.Plan(asm)
	if err != nil {
		return err
	}
	slots := min(len(x.Slots), len(chunks))

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{
		x:        x,
		plan:     plan,
		chunks:   chunks,
		ctx:      rctx,
		cancel:   cancel,
		observed: x.Trace != nil || x.Metrics != nil,
		attempts: make([]int, len(chunks)),
		window:   2 * slots,
		rep:      &Report{},
		// One result per slot: a collector that lags (a slow emit) blocks
		// the slots instead of letting the whole genome's hits pile up.
		results: make(chan settled, slots),
	}
	r.cond = sync.NewCond(&r.mu)
	if x.Policy != nil {
		r.watchdog = x.Policy.Watchdog
	}
	x.Metrics.Gauge(obs.MetricQueueDepth, float64(len(chunks)))
	// Wake waiting claims on cancellation. Holding the mutex orders the
	// wake-up after any claim that checked the context just before it was
	// cancelled has gone to sleep.
	stop := context.AfterFunc(rctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.worker(i)
		}(i)
	}
	go func() {
		wg.Wait()
		close(r.results)
	}()

	r.collect(emit)

	sort.Slice(r.rep.Quarantined, func(a, b int) bool {
		return r.rep.Quarantined[a].Index < r.rep.Quarantined[b].Index
	})
	if x.OnReport != nil {
		x.OnReport(r.rep)
	}
	if x.Policy != nil && x.Policy.OnReport != nil {
		x.Policy.OnReport(r.rep)
	}
	switch {
	case r.firstErr != nil:
		return r.firstErr
	case ctx.Err() != nil:
		return ctx.Err()
	case r.closeErr != nil:
		return r.closeErr
	case len(r.rep.Quarantined) > 0:
		return &PartialError{Report: r.rep}
	}
	return nil
}

// collect reorders settled chunks back into plan order on the caller's
// goroutine and emits their hits, advancing the cursor past each chunk it
// is done with. Quarantined chunks advance it with no hits. It returns once
// every slot has stopped and closed its backend.
func (r *run) collect(emit func(Hit) error) {
	x := r.x
	track := x.track() + "/collect"
	pending := make(map[int]settled)
	emitting := true
	for res := range r.results {
		pending[res.index] = res
		// Only the collector writes cursor, so it reads it unlocked.
		for rec, ok := pending[r.cursor]; ok; rec, ok = pending[r.cursor] {
			delete(pending, r.cursor)
			if !rec.quarantined && emitting {
				var t0 time.Time
				if r.observed {
					t0 = time.Now()
				}
				for _, h := range rec.hits {
					err := r.ctx.Err()
					if err == nil {
						err = emit(h)
					}
					if err != nil {
						r.fail(err)
						emitting = false
						break
					}
				}
				if r.observed {
					x.Trace.Complete(track, "emit", r.cursor, t0, time.Since(t0),
						obs.Attr{Key: "hits", Value: strconv.Itoa(len(rec.hits))})
					x.Metrics.Count(obs.MetricHits, int64(len(rec.hits)))
				}
			}
			x.Metrics.Count(obs.MetricPipelineChunks, 1)
			r.mu.Lock()
			r.cursor++
			r.mu.Unlock()
			r.cond.Broadcast()
		}
	}
}

// worker drives slot i: open its backend, then settle claims until the run
// is over. A chunk that exhausts the backend fails over on the slot.
func (r *run) worker(i int) {
	track := r.x.track() + "/worker" + strconv.Itoa(i)
	be, err := r.x.Slots[i].Open(r.plan)
	if err != nil {
		// A slot that cannot open has nothing to serve the queue with.
		r.fail(err)
		return
	}
	var fb fallback
	defer func() {
		r.foldClose(be.Close())
		if fb.be != nil {
			r.foldClose(fb.be.Close())
		}
	}()
	sr := &SiteRenderer{}
	for {
		index, ok := r.claim()
		if !ok {
			return
		}
		hits, err := r.scan(be, index, sr, track)
		switch {
		case err == nil:
			r.settle(settled{index: index, hits: hits})
		case r.ctx.Err() != nil:
			return
		case r.x.Policy == nil:
			r.fail(err)
			return
		default:
			r.failover(index, sr, track, &fb, err)
		}
	}
}

// claim returns the lowest unclaimed index, waiting while it lies outside
// the reorder window for the collector to advance; it reports false when the
// run is over: every chunk claimed, the run failed, or the context was
// cancelled.
func (r *run) claim() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.firstErr == nil && r.ctx.Err() == nil && r.next < len(r.chunks) {
		if r.next < r.cursor+r.window {
			index := r.next
			r.next++
			r.x.Metrics.Gauge(obs.MetricQueueDepth, float64(len(r.chunks)-r.next))
			return index, true
		}
		r.cond.Wait()
	}
	return 0, false
}

// scan settles one chunk on the slot's own backend as far as the policy's
// retry budget goes: transient failures retry with the seeded backoff. Any
// error it returns has exhausted the slot.
func (r *run) scan(be Backend, index int, sr *SiteRenderer, track string) ([]Hit, error) {
	res := r.x.Policy
	retries := 0
	for {
		hits, err := r.attempt(be, index, sr, track)
		if err == nil || res == nil {
			return hits, err
		}
		if r.ctx.Err() != nil {
			return nil, r.ctx.Err()
		}
		if fault.ClassOf(err) != fault.Transient || retries >= res.retryBudget() {
			return nil, err
		}
		retries++
		r.count(&r.rep.Retries)
		r.x.Trace.Instant(track, "retry", index,
			obs.Attr{Key: "try", Value: strconv.Itoa(retries)},
			obs.Attr{Key: "error", Value: err.Error()})
		t0 := time.Now()
		serr := sleepCtx(r.ctx, res.retryBackoff(index, retries))
		r.x.Trace.Complete(track, "backoff", index, t0, time.Since(t0))
		if serr != nil {
			return nil, serr
		}
	}
}

// attempt runs one full scan attempt of a chunk on be — four phases, one
// backend call each: Stage, Find, Compare, Drain — as a "scan" span and a
// scan-latency sample on the track, its phases spans inside it. Each phase
// is bounded by the watchdog deadline: a phase that exceeds it — a hung
// simulated kernel — is cancelled through its context, counted with a
// "watchdog-kill" instant, and comes back as a transient SiteWatchdog fault
// for scan to retry. The staged handle is released if any later phase
// fails, so a retried chunk always re-stages fresh. Cancellation of the run
// passes through untouched.
func (r *run) attempt(be Backend, index int, sr *SiteRenderer, track string) (hits []Hit, err error) {
	x, ctx := r.x, r.ctx
	r.attempts[index]++
	if r.observed {
		t0 := time.Now()
		defer func() {
			dur := time.Since(t0)
			x.Trace.Complete(track, "scan", index, t0, dur)
			x.Metrics.Observe(obs.MetricScanSeconds, dur.Seconds())
		}()
	}
	guard := func(name string, phase func(context.Context) error) error {
		pctx := ctx
		if r.watchdog > 0 {
			var cancel context.CancelFunc
			pctx, cancel = context.WithTimeout(ctx, r.watchdog)
			defer cancel()
		}
		var err error
		if r.observed {
			t0 := time.Now()
			err = phase(pctx)
			dur := time.Since(t0)
			x.Trace.Complete(track, name, index, t0, dur)
			if name == "stage" {
				x.Metrics.Observe(obs.MetricStageSeconds, dur.Seconds())
			}
		} else {
			err = phase(pctx)
		}
		if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			r.count(&r.rep.WatchdogKills)
			x.Trace.Instant(track, "watchdog-kill", index,
				obs.Attr{Key: "phase", Value: name})
			return fault.New(fault.SiteWatchdog, fault.Transient,
				fmt.Errorf("pipeline: watchdog deadline (%v) reaped phase: %w", r.watchdog, err))
		}
		return err
	}

	var st Staged
	err = guard("stage", func(pctx context.Context) error {
		var serr error
		st, serr = be.Stage(pctx, r.chunks[index])
		return serr
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			be.Release(st)
		}
	}()

	if err = guard("find", func(pctx context.Context) error { return be.Find(pctx, st) }); err != nil {
		return nil, err
	}
	if err = guard("compare", func(pctx context.Context) error { return be.Compare(pctx, st) }); err != nil {
		return nil, err
	}
	err = guard("drain", func(pctx context.Context) error {
		var derr error
		hits, derr = be.Drain(pctx, st, sr)
		return derr
	})
	if err != nil {
		return nil, err
	}
	SortHits(hits)
	return hits, nil
}

// fallback is one slot's failover arm: the policy's Fallback backend, opened
// the first time a chunk exhausts the slot and closed with the slot, or the
// error that kept it from opening.
type fallback struct {
	opened bool
	be     Backend
	err    error
}

// failover is a slot's recourse for a chunk that exhausted it: one attempt
// on the slot's fallback, opened on first use, then quarantine. The slot goes
// on serving the queue either way.
func (r *run) failover(index int, sr *SiteRenderer, track string, fb *fallback, cause error) {
	if !fb.opened {
		fb.opened = true
		if open := r.x.Policy.Fallback; open != nil {
			be, err := open(r.plan)
			if err != nil {
				fb.err = fmt.Errorf("pipeline: opening fallback backend: %w", err)
			} else {
				fb.be = be
			}
		}
	}
	if fb.be == nil {
		if fb.err != nil {
			cause = fb.err
		}
	} else {
		r.count(&r.rep.Failovers)
		r.x.Trace.Instant(track, "failover", index,
			obs.Attr{Key: "error", Value: cause.Error()})
		hits, err := r.attempt(fb.be, index, sr, track+"/fallback")
		if err == nil {
			r.settle(settled{index: index, hits: hits})
			return
		}
		if r.ctx.Err() != nil {
			return
		}
		cause = err
	}
	ch := r.chunks[index]
	r.mu.Lock()
	r.rep.Quarantined = append(r.rep.Quarantined, ChunkFailure{
		Index: index, SeqName: ch.SeqName, Start: ch.Start, Body: ch.Body,
		Attempts: r.attempts[index], Err: cause,
	})
	r.mu.Unlock()
	r.x.Trace.Instant(track, "quarantine", index,
		obs.Attr{Key: "error", Value: cause.Error()})
	r.settle(settled{index: index, quarantined: true})
}

// settle hands a slot's terminal result for a chunk to the collector.
func (r *run) settle(s settled) {
	r.mu.Lock()
	r.rep.Chunks++
	r.mu.Unlock()
	select {
	case r.results <- s:
		// Yield so the collector runs now. The send made it runnable on this
		// P, but with every P busy scanning it would otherwise sit there
		// until this slot blocks or is preempted — a whole chunk later,
		// which is the time to the first hit (EXPERIMENTS.md).
		runtime.Gosched()
	case <-r.ctx.Done():
	}
}

// count adds one to a report counter.
func (r *run) count(field *int64) {
	r.mu.Lock()
	*field++
	r.mu.Unlock()
}

// fail records the run's first fatal error and cancels everything.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
	r.cancel()
}

// foldClose folds a backend Close error without masking an earlier one.
func (r *run) foldClose(err error) {
	r.mu.Lock()
	if r.closeErr == nil {
		r.closeErr = err
	}
	r.mu.Unlock()
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
