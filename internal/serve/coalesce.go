// Cross-request guide coalescing: the production form of the CPU scan's
// multi-pattern batching (one fused compare per chunk, ~3.2x over independent
// passes). Every request joins a batch: requests that share a coalescing
// key — (genome, PAM pattern) — and arrive within a fixed 2 ms window are
// merged into one genome pass whose request carries every member's guides
// back-to-back; the demultiplexer routes each hit to its owner, rewriting
// the merged query index back into the member's own index space.
//
// Identity contract: the pipeline emits hits grouped by chunk in chunk
// order and sorted by (query, seq, pos, dir) within each chunk, and member
// queries occupy a contiguous merged-index range, so filtering a member's
// hits out of the merged stream preserves exactly the order the member
// would have seen running alone. Per-request output is therefore
// byte-identical to an uncoalesced run (coalesce_test.go pins this under
// -race); the window only ever trades a bounded latency delay for fewer
// genome passes. The window and the early seal are constants: a group-commit
// policy (seal at once while the key's engine is idle) measured worse on two
// of the three daemon workloads (EXPERIMENTS.md).
//
// Failure attribution: one merged pass serves several requests, so a
// degraded pass (retries, failovers, quarantined chunks) degrades every
// member — each sees the pass's resilience report in its trailer, and a
// quarantined chunk's missing region is missing from every member's
// stream. A member whose own client dies mid-pass is marked gone and the
// pass carries on for the rest; only when every member is gone is the pass
// cancelled.
package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// coalesceWindow is the batching window: long enough for concurrent
// arrivals to meet. A request waits it out before its pass starts.
const coalesceWindow = 2 * time.Millisecond

// coalesceMaxGuides seals a batch early once the merged request carries
// this many guides.
const coalesceMaxGuides = 512

// errAllMembersGone aborts a pass whose every member has departed.
var errAllMembersGone = errors.New("serve: every coalesced member left")

// passFunc runs one genome pass: a pipeline stream of req over the named
// resident genome, returning the pass's resilience report (nil when the
// engine ran clean or carries no resilience policy).
type passFunc func(ctx context.Context, genome string, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error)

// coalKey identifies requests that may share one genome pass. Mismatch
// budgets are per-guide and ride along inside the merged request, and every
// pass stages chunks of the pipeline's default size, so neither partitions
// batches.
type coalKey struct {
	genome  string
	pattern string
}

// coalMember is one request's seat in a batch.
type coalMember struct {
	queries []pipeline.Query
	emit    func(pipeline.Hit) error
	// off is the member's first query index in the merged request; set at
	// seal, immutable afterwards.
	off int
	// err records the member's first emit failure; gone marks a departed
	// client. Both are guarded by the batch mutex and stop forwarding.
	err  error
	gone bool
}

// coalBatch collects members for one key until sealed, then runs the merged
// pass exactly once.
type coalBatch struct {
	key     coalKey
	members []*coalMember
	guides  int
	sealed  bool
	timer   *time.Timer

	// mu guards the forwarding state (member err/gone, live, cancel) from
	// seal onwards; the coalescer mutex guards everything before.
	mu     sync.Mutex
	live   int
	cancel context.CancelFunc

	done   chan struct{}
	report *pipeline.Report
	err    error
}

// coalescer groups concurrent joins into batches per key.
type coalescer struct {
	window  time.Duration
	run     passFunc
	metrics *obs.Metrics

	mu      sync.Mutex
	pending map[coalKey]*coalBatch
}

// newCoalescer builds a coalescer whose batches seal window after their
// first member joins. The server passes coalesceWindow; tests in this
// package pass longer windows to make batch membership certain.
func newCoalescer(window time.Duration, run passFunc, m *obs.Metrics) *coalescer {
	return &coalescer{
		window:  window,
		run:     run,
		metrics: m,
		pending: make(map[coalKey]*coalBatch),
	}
}

// Join submits one request and streams its hits through emit. It blocks
// until the request's pass completes (or ctx ends) and returns the pass's
// resilience report, the pass error, and the member's own emit error.
func (c *coalescer) Join(ctx context.Context, genomeName string, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error, error) {
	key := coalKey{genome: genomeName, pattern: req.Pattern}
	m := &coalMember{queries: req.Queries, emit: emit}

	c.mu.Lock()
	b := c.pending[key]
	if b == nil {
		b = &coalBatch{key: key, done: make(chan struct{})}
		c.pending[key] = b
		b.timer = time.AfterFunc(c.window, func() { c.seal(b) })
	}
	b.members = append(b.members, m)
	b.guides += len(m.queries)
	b.mu.Lock()
	b.live++
	b.mu.Unlock()
	full := b.guides >= coalesceMaxGuides
	c.mu.Unlock()
	if full {
		c.seal(b)
	}

	select {
	case <-b.done:
		b.mu.Lock()
		rep, perr, merr := b.report, b.err, m.err
		b.mu.Unlock()
		return rep, perr, merr
	case <-ctx.Done():
		// The client is gone; the batch runs on for the others, cancelled
		// only when the last member departs.
		b.mu.Lock()
		m.gone = true
		b.live--
		if b.live == 0 && b.cancel != nil {
			b.cancel()
		}
		merr := m.err
		b.mu.Unlock()
		return nil, ctx.Err(), merr
	}
}

// seal closes a batch to new members and runs its merged pass. Safe to call
// more than once (timer expiry and the max-guides trigger can race); only
// the first call wins.
func (c *coalescer) seal(b *coalBatch) {
	c.mu.Lock()
	if b.sealed {
		c.mu.Unlock()
		return
	}
	b.sealed = true
	if c.pending[b.key] == b {
		delete(c.pending, b.key)
	}
	b.timer.Stop()
	merged := &pipeline.Request{Pattern: b.key.pattern}
	offs := make([]int, len(b.members))
	for i, m := range b.members {
		m.off = len(merged.Queries)
		offs[i] = m.off
		merged.Queries = append(merged.Queries, m.queries...)
	}
	c.mu.Unlock()

	c.metrics.Count(obs.MetricServeBatches, 1)
	if len(b.members) > 1 {
		c.metrics.Count(obs.MetricServeCoalesced, int64(len(b.members)))
	}

	passCtx, cancel := context.WithCancel(context.Background())
	b.mu.Lock()
	b.cancel = cancel
	if b.live == 0 {
		cancel()
	}
	b.mu.Unlock()

	go func() {
		defer cancel()
		var rep *pipeline.Report
		var err error
		func() {
			// The merged pass runs outside any handler goroutine, so an
			// engine panic here would crash the daemon and leave b.done
			// unclosed, hanging every member. Convert it to the pass error
			// instead; each member's trailer path reports it as a 500.
			defer func() {
				if rec := recover(); rec != nil {
					c.metrics.Count(obs.MetricServePanics, 1)
					err = apiErrorf(http.StatusInternalServerError, "panic",
						"internal error during genome pass")
				}
			}()
			rep, err = c.run(passCtx, b.key.genome, merged, func(h pipeline.Hit) error {
				return b.forward(offs, h)
			})
		}()
		if errors.Is(err, errAllMembersGone) {
			err = context.Canceled
		}
		b.mu.Lock()
		b.report, b.err = rep, err
		b.mu.Unlock()
		close(b.done)
	}()
}

// forward demultiplexes one merged hit to its owning member, rewriting the
// query index into the member's own space. A member that errored or left
// is skipped; the pass is aborted only when no member is listening at all.
func (b *coalBatch) forward(offs []int, h pipeline.Hit) error {
	// The member whose range holds h.QueryIndex is the last offset <= it.
	i := sort.SearchInts(offs, h.QueryIndex+1) - 1
	m := b.members[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.live == 0 {
		return errAllMembersGone
	}
	if m.gone || m.err != nil {
		return nil
	}
	h.QueryIndex -= m.off
	if err := m.emit(h); err != nil {
		m.err = err
	}
	return nil
}
