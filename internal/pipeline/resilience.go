// The resilience policy and the one scan attempt it governs. A backend error
// is a per-chunk event, not the end of the run: transient failures are
// retried with capped exponential backoff, hung kernels are reaped by a
// per-phase watchdog deadline, and chunks that keep failing — or fail
// fatally, or return corrupted data — go to another backend. This file holds
// what engines and the executor share — the Resilience policy, the Report and
// PartialError a degraded run produces, and Attempt, one watchdog-guarded
// Stage→Drain pass of one chunk on one backend. The recovery rule itself
// (retry, overflow relaunch, eviction, failover, quarantine) is
// internal/sched's.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
)

// Default resilience parameters, used when the corresponding Resilience
// field is zero.
const (
	// DefaultMaxRetries is the per-chunk transient retry budget on the
	// primary backend.
	DefaultMaxRetries = 2
	// DefaultBackoffBase is the first retry delay.
	DefaultBackoffBase = 1 * time.Millisecond
	// DefaultBackoffMax caps the exponential backoff growth.
	DefaultBackoffMax = 50 * time.Millisecond
	// DefaultMaxOverflowRelaunches is the per-chunk budget for relaunching
	// after a fault.Overflow error escapes a backend. Backends grow their
	// hit-buffer arena and relaunch internally, so an escaped overflow means
	// the arena was exhausted at its worst-case layout — possible only under
	// corrupted arena readback, which a fresh attempt usually clears. The
	// budget is separate from the transient retry budget: an overflow
	// relaunch must not starve the retries a genuinely flaky device needs.
	DefaultMaxOverflowRelaunches = 2
)

// Resilience is the recovery policy of a run. Without one the first backend
// error aborts the run.
type Resilience struct {
	// MaxRetries is how many times a chunk is retried on the backend that
	// failed it transiently before the chunk has exhausted that backend.
	// Zero means DefaultMaxRetries; negative means no retries.
	MaxRetries int
	// Watchdog bounds every backend phase call (Stage, Find, Compare,
	// Drain). A phase that exceeds it — a hung simulated kernel — is
	// cancelled through its context and treated as a transient failure.
	// Zero disables the watchdog.
	Watchdog time.Duration
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between retries: attempt k waits base·2^k, capped at max, scaled by
	// a deterministic jitter in [0.5, 1.0). Zero values take the package
	// defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed feeds the backoff jitter so retry timing is reproducible.
	Seed uint64
	// Fallback opens the failover backend for a plan. It is called at
	// most once per run, lazily, the first time a chunk exhausts the last
	// live slot; the backend is closed with the run. A nil Fallback
	// disables failover: such chunks are quarantined directly.
	Fallback func(plan *Plan) (Backend, error)
	// OnReport, when set, receives the run's resilience report exactly
	// once, after the last chunk settles and before backends close.
	OnReport func(*Report)
}

// RetryBudget returns the effective per-chunk transient retry budget:
// MaxRetries with the documented zero/negative semantics resolved.
func (r *Resilience) RetryBudget() int {
	if r.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	if r.MaxRetries < 0 {
		return 0
	}
	return r.MaxRetries
}

// RetryBackoff returns the deterministic delay before retry attempt
// (1-based) of the given chunk: capped exponential growth scaled by a
// jitter in [0.5, 1.0) derived from (Seed, chunk, attempt), so two runs
// with the same seed retry on the same schedule.
func (r *Resilience) RetryBackoff(chunk, attempt int) time.Duration {
	d, max := r.BackoffBase, r.BackoffMax
	if d <= 0 {
		d = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	j := fault.Jitter(r.Seed, uint64(chunk), uint64(attempt)) // [0.5, 1.0)
	return time.Duration(float64(d) * j)
}

// Report summarises the resilience events of one run. It is attached to a
// PartialError when chunks were quarantined and delivered through
// Resilience.OnReport in every case.
type Report struct {
	// Chunks is the number of chunks that settled (emitted or quarantined).
	Chunks int
	// Retries counts transient retry attempts across all chunks.
	Retries int64
	// OverflowRelaunches counts chunks relaunched on the same backend after a
	// fault.Overflow error escaped the backend (an arena exhausted at its
	// worst-case layout, i.e. corrupted arena readback).
	OverflowRelaunches int64
	// Failovers counts chunks re-staged on the fallback backend.
	Failovers int64
	// WatchdogKills counts phases cancelled by the watchdog deadline.
	WatchdogKills int64
	// FallbackUsed reports whether the fallback backend was opened.
	FallbackUsed bool
	// Quarantined lists the chunks that failed on every arm, in chunk
	// order. Their hits are missing from the emitted stream.
	Quarantined []ChunkFailure
}

// Degraded reports whether the run deviated from the clean path at all.
func (r *Report) Degraded() bool {
	return r.Retries > 0 || r.OverflowRelaunches > 0 || r.Failovers > 0 ||
		r.WatchdogKills > 0 || len(r.Quarantined) > 0
}

// ChunkFailure records one quarantined chunk: which part of the assembly is
// missing from the results and why.
type ChunkFailure struct {
	// Index is the chunk's position in plan order.
	Index int
	// SeqName and Start locate the chunk in the assembly; Body is how
	// many site-start positions its loss removes from the search.
	SeqName string
	Start   int
	Body    int
	// Attempts is the total number of scan attempts across both arms.
	Attempts int
	// Err is the error that exhausted the last arm.
	Err error
}

func (f *ChunkFailure) String() string {
	return fmt.Sprintf("chunk %d (%s:%d, %d sites) after %d attempts: %v",
		f.Index, f.SeqName, f.Start, f.Body, f.Attempts, f.Err)
}

// PartialError is returned by Stream when the run completed but one or more
// chunks were quarantined: every hit outside the quarantined chunks was
// emitted in the deterministic order, and the report says exactly which
// genome regions are missing.
type PartialError struct {
	Report *Report
}

// Error implements error.
func (e *PartialError) Error() string {
	n := len(e.Report.Quarantined)
	return fmt.Sprintf("pipeline: partial results: %d of %d chunks quarantined", n, e.Report.Chunks)
}

// Releaser is an optional Backend capability: backends that can release the
// per-chunk resources of an abandoned staged handle implement it, so Attempt
// returns device memory as soon as a scan attempt is abandoned instead of
// holding every orphaned handle until Close.
type Releaser interface {
	Release(st Staged)
}

// AttemptObs carries the observability sinks the phase spans and latency
// histograms of one Attempt land on. The zero value disables observation
// (the obs types are nil-safe).
type AttemptObs struct {
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	// Track names the trace track the phase spans are recorded on.
	Track string
}

// Attempt runs one full scan attempt — Stage through Drain — of one chunk
// on one backend; the executor (internal/sched) builds every chunk's
// recovery out of Attempts. The attempt is a "scan" span and a scan-latency
// sample on the track, its phases are spans inside it. Each phase is
// bounded by the watchdog deadline (zero disables it): a phase that exceeds
// it — a hung simulated kernel — is cancelled through its context and comes
// back as a transient SiteWatchdog fault (IsWatchdogKill), with a
// "watchdog-kill" instant on the track; counting kills and classifying the
// error for retry is the caller's job. The staged handle is released (when
// the backend implements Releaser) if any later phase fails, so a retried
// chunk always re-stages fresh. Cancellation of the parent context passes
// through untouched.
func Attempt(ctx context.Context, be Backend, plan *Plan, index int, ch *genome.Chunk, r *SiteRenderer, watchdog time.Duration, o AttemptObs) (hits []Hit, err error) {
	observed := o.Trace != nil || o.Metrics != nil
	if observed {
		t0 := time.Now()
		defer func() {
			dur := time.Since(t0)
			o.Trace.Complete(o.Track, "scan", index, t0, dur)
			o.Metrics.Observe(obs.MetricScanSeconds, dur.Seconds())
		}()
	}
	guard := func(ctx context.Context, name string, phase func(context.Context) error) error {
		pctx := ctx
		if watchdog > 0 {
			var cancel context.CancelFunc
			pctx, cancel = context.WithTimeout(ctx, watchdog)
			defer cancel()
		}
		var err error
		if observed {
			t0 := time.Now()
			err = phase(pctx)
			dur := time.Since(t0)
			o.Trace.Complete(o.Track, name, index, t0, dur)
			if name == "stage" {
				o.Metrics.Observe(obs.MetricStageSeconds, dur.Seconds())
			}
		} else {
			err = phase(pctx)
		}
		if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			o.Trace.Instant(o.Track, "watchdog-kill", index,
				obs.Attr{Key: "phase", Value: name})
			return fault.New(fault.SiteWatchdog, fault.Transient,
				fmt.Errorf("pipeline: watchdog deadline (%v) reaped phase: %w", watchdog, err))
		}
		return err
	}

	var st Staged
	err = guard(ctx, "stage", func(pctx context.Context) error {
		var serr error
		st, serr = be.Stage(pctx, ch)
		return serr
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			if rel, ok := be.(Releaser); ok {
				rel.Release(st)
			}
		}
	}()

	var n int
	err = guard(ctx, "find", func(pctx context.Context) error {
		var ferr error
		n, ferr = be.Find(pctx, st)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if bc, ok := be.(BatchComparer); ok {
			err = guard(ctx, "compare", func(pctx context.Context) error {
				return bc.CompareAll(pctx, st)
			})
			if err != nil {
				return nil, err
			}
		} else {
			for qi := range plan.Guides {
				err = guard(ctx, "compare", func(pctx context.Context) error {
					return be.Compare(pctx, st, qi)
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	err = guard(ctx, "drain", func(pctx context.Context) error {
		var derr error
		hits, derr = be.Drain(pctx, st, r)
		return derr
	})
	if err != nil {
		return nil, err
	}
	SortHits(hits)
	return hits, nil
}

// IsWatchdogKill reports whether err is a watchdog-synthesised kill from
// Attempt (a reaped phase rather than a backend failure).
func IsWatchdogKill(err error) bool {
	var fe *fault.Error
	return errors.As(err, &fe) && fe.Site == fault.SiteWatchdog
}
