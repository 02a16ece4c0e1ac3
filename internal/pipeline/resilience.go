// The resilience policy and the report of a run. A backend error is a
// per-chunk event, not the end of the run: transient failures are retried
// with capped exponential backoff, hung kernels are reaped by a per-phase
// watchdog deadline, and chunks that keep failing — or fail fatally, or
// return corrupted data — go to another backend. The recovery rule itself
// (retry, overflow relaunch, eviction, failover, quarantine) is the
// executor's (executor.go).

package pipeline

import (
	"fmt"
	"time"

	"casoffinder/internal/fault"
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
)

// maxOverflowRelaunches is the per-chunk budget for relaunching after a
// fault.Overflow error escapes a backend. Backends refit their hit-buffer
// arena to the launch's own emission counters and relaunch once internally,
// so an escaped overflow is one those counters cannot explain — possible
// only under corrupted arena readback, which a fresh attempt usually
// clears. The budget is separate
// from the transient retry budget: an overflow relaunch must not starve the
// retries a genuinely flaky device needs.
const maxOverflowRelaunches = 2

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
	// OnReport, when set, receives the run's report exactly once, after the
	// last chunk settles and every backend has closed.
	OnReport func(*Report)
}

// retryBudget returns the effective per-chunk transient retry budget:
// MaxRetries with the documented zero/negative semantics resolved.
func (r *Resilience) retryBudget() int {
	if r.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	if r.MaxRetries < 0 {
		return 0
	}
	return r.MaxRetries
}

// retryBackoff returns the deterministic delay before retry attempt
// (1-based) of the given chunk: capped exponential growth scaled by a
// jitter in [0.5, 1.0) derived from (Seed, chunk, attempt), so two runs
// with the same seed retry on the same schedule.
func (r *Resilience) retryBackoff(chunk, attempt int) time.Duration {
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

// Report summarises one run: its recovery events and the fleet's
// accounting. It is attached to a PartialError when chunks were quarantined
// and delivered through Executor.OnReport and Resilience.OnReport in every
// case.
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
	// Evictions counts slots evicted from the fleet.
	Evictions int64
	// Slots holds one row per slot that ran, in slot order. Which slot
	// settled which chunk is scheduling, so the rows' Chunks are too.
	Slots []SlotReport
}

// Degraded reports whether the run deviated from the clean path at all.
func (r *Report) Degraded() bool {
	return r.Retries > 0 || r.OverflowRelaunches > 0 || r.Failovers > 0 ||
		r.WatchdogKills > 0 || len(r.Quarantined) > 0 || r.Evictions > 0
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
