// The pass scheduler: the daemon's one queue in front of the engine. It
// schedules genome passes, not requests. A request that passes the front
// gates (admission.go) waits as a member of its key's open batch, and a batch
// runs as one genome pass once it is ready and a pass slot is free.
//
// Batches: requests that share a coalescing key — (genome, PAM pattern) —
// wait in one batch, whose pass carries every member's guides back-to-back;
// the demultiplexer routes each hit to its owner, rewriting the merged query
// index back into the member's own index space. A batch is ready once
// coalesceWindow has passed since it opened, or at once when it carries
// coalesceMaxGuides guides (it then takes no more members). It runs when a
// pass slot is free: one slot under Config.SerializePasses (the simulator
// engines), Limits.MaxInflight otherwise. While every slot is busy a ready
// batch keeps taking members, so the next pass carries every request that
// arrived meanwhile. A freed slot takes the ready batch with the
// highest-priority member, the oldest batch first among equals. The window
// applies even with a slot idle: sealing at once while the engine is idle
// measured worse on two of the three daemon workloads (EXPERIMENTS.md).
//
// Waiting members count against Limits.MaxQueue, and priority shedding picks
// its victim among them. A member that is shed, times out or is cancelled
// before its pass leaves its batch, and its guides do not ride in the pass.
// So at most MaxQueue requests wait, and each slot runs one batch.
//
// Identity contract: the pipeline emits hits grouped by chunk in chunk
// order and sorted by (query, seq, pos, dir) within each chunk, and member
// queries occupy a contiguous merged-index range, so filtering a member's
// hits out of the merged stream preserves exactly the order the member
// would have seen running alone. Per-request output is therefore
// byte-identical to an uncoalesced run (coalesce_test.go pins this under
// -race).
//
// Failure attribution: one merged pass serves several requests, so a
// degraded pass (retries, failovers, quarantined chunks) degrades every
// member — each sees the pass's resilience report in its trailer, and a
// quarantined chunk's missing region is missing from every member's
// stream. A member whose client leaves, or whose own write fails, departs
// and the pass carries on for the rest; only when every member is gone is
// the pass cancelled. The demultiplexer calls a member's emit outside every
// scheduler lock, so a member blocked in a write holds up only the pass's
// goroutine, never another member's departure.
package serve

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// coalesceWindow is the batching window: long enough for concurrent
// arrivals to meet. A request waits at least this long before its pass.
const coalesceWindow = 2 * time.Millisecond

// coalesceMaxGuides makes a batch ready early once the merged request
// carries this many guides.
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

// member is one request's seat in a batch.
type member struct {
	priority int
	queries  []pipeline.Query
	emit     func(pipeline.Hit) error

	// Set under the scheduler mutex: the member's batch and arrival number,
	// when it joined and when its pass started (zero while it waits), and
	// the rejection that shed it before its pass.
	b       *batch
	seq     uint64
	joined  time.Time
	started time.Time
	rej     *RejectError
	// off is the member's first query index in the merged request; set at
	// start, immutable afterwards.
	off int
	// quit is closed when the member leaves without its client leaving:
	// shed before its pass, or its own emit failed during it.
	quit chan struct{}
	// err records the member's emit failure; gone marks a member that left
	// its running pass. Both are guarded by the batch mutex.
	err  error
	gone bool
}

// batch collects members for one key until its pass starts, then runs the
// merged pass exactly once.
type batch struct {
	key     coalKey
	members []*member
	guides  int
	ready   bool
	timer   *time.Timer

	// offs are the members' offsets, set at start. mu guards live, cancel
	// and the members' err and gone from start on.
	offs   []int
	mu     sync.Mutex
	live   int
	cancel context.CancelFunc

	// done is closed when the pass has returned its report and error.
	done   chan struct{}
	report *pipeline.Report
	err    error
}

// scheduler is the pass scheduler. Its state sits behind one mutex; the
// queue is small by construction (MaxQueue members), so linear scans are
// fine.
type scheduler struct {
	lim     Limits // MaxInflight is the pass slot count
	window  time.Duration
	now     func() time.Time
	run     passFunc
	metrics *obs.Metrics

	mu       sync.Mutex
	tenants  map[string]*bucket
	open     map[coalKey]*batch // the batch each key's arrivals join
	queue    []*batch           // batches whose pass has not started, oldest first
	waiting  int                // members of queued batches
	running  int                // passes holding a slot
	arrivals uint64
	draining bool
	// observe, when set, runs under mu after every change of state; tests
	// wait on scheduler events through it.
	observe func()
}

// newScheduler builds a scheduler over resolved limits whose batches are
// ready window after they open. The server passes coalesceWindow; tests in
// this package pass longer windows to make batch membership certain.
func newScheduler(lim Limits, window time.Duration, now func() time.Time, run passFunc, m *obs.Metrics) *scheduler {
	if now == nil {
		now = time.Now
	}
	return &scheduler{
		lim: lim, window: window, now: now, run: run, metrics: m,
		tenants: make(map[string]*bucket),
		open:    make(map[coalKey]*batch),
	}
}

// Join runs the gates for m and, once m is accepted, waits while its batch
// forms and streams its hits through m.emit while its pass runs. It returns
// the pass's resilience report, the pass error — a *RejectError when m was
// refused or shed before its pass, ctx's error when its client left — and
// m's own emit error.
func (s *scheduler) Join(ctx context.Context, tenant string, key coalKey, m *member) (*pipeline.Report, error, error) {
	s.mu.Lock()
	if rej := s.admitLocked(ctx, tenant, m.priority); rej != nil {
		s.mu.Unlock()
		return nil, rej, nil
	}
	b := s.open[key]
	if b == nil {
		b = &batch{key: key, done: make(chan struct{})}
		s.open[key] = b
		s.queue = append(s.queue, b)
		b.timer = time.AfterFunc(s.window, func() { s.ripen(b) })
	}
	s.arrivals++
	m.b, m.seq, m.joined, m.quit = b, s.arrivals, s.now(), make(chan struct{})
	b.members = append(b.members, m)
	b.guides += len(m.queries)
	s.waiting++
	if b.guides >= coalesceMaxGuides {
		b.ready = true
		delete(s.open, key) // later arrivals open a new batch
	}
	s.dispatchLocked()
	s.changedLocked()
	s.mu.Unlock()

	select {
	case <-b.done:
		if m.rej == nil {
			return b.report, b.err, m.err
		}
	case <-m.quit:
	case <-ctx.Done():
		return s.leave(ctx, m)
	}
	if m.rej != nil {
		return nil, m.rej, nil
	}
	return nil, nil, m.err
}

// leave withdraws m after its client's context ended. A member shed first
// reports its rejection. A waiting member leaves its batch: a deadline is a
// 429, a cancellation the context's error. A member whose pass runs is
// marked gone, and the pass is cancelled once every member is.
func (s *scheduler) leave(ctx context.Context, m *member) (*pipeline.Report, error, error) {
	s.mu.Lock()
	if m.rej != nil {
		s.mu.Unlock()
		return nil, m.rej, nil
	}
	if m.started.IsZero() {
		s.removeLocked(m)
		s.changedLocked()
		defer s.mu.Unlock()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, s.reject(http.StatusTooManyRequests, "deadline", DefaultRetryAfter), nil
		}
		return nil, ctx.Err(), nil
	}
	s.mu.Unlock()
	b := m.b
	b.mu.Lock()
	defer b.mu.Unlock()
	b.departLocked(m)
	return nil, ctx.Err(), m.err
}

// shedLocked takes a waiting member out of its batch with a rejection.
func (s *scheduler) shedLocked(m *member, rej *RejectError) {
	s.removeLocked(m)
	m.rej = rej
	close(m.quit)
}

// removeLocked takes a waiting member out of its batch, and drops the batch
// once it is empty.
func (s *scheduler) removeLocked(m *member) {
	b := m.b
	b.members = slices.DeleteFunc(b.members, func(x *member) bool { return x == m })
	b.guides -= len(m.queries)
	s.waiting--
	if len(b.members) == 0 {
		s.dropLocked(b)
	}
}

// dropLocked takes a batch out of the queue: it starts, or it has no
// members left.
func (s *scheduler) dropLocked(b *batch) {
	s.queue = slices.DeleteFunc(s.queue, func(x *batch) bool { return x == b })
	if s.open[b.key] == b {
		delete(s.open, b.key)
	}
	b.timer.Stop()
}

// ripen is a batch's window timer: the batch may run from now on.
func (s *scheduler) ripen(b *batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.ready = true
	s.dispatchLocked()
	s.changedLocked()
}

// dispatchLocked hands free pass slots to ready batches: the batch with the
// highest-priority member first, the oldest first among equals.
func (s *scheduler) dispatchLocked() {
	for s.running < s.lim.MaxInflight {
		var next *batch
		best := -1
		for _, b := range s.queue {
			if !b.ready {
				continue
			}
			for _, m := range b.members {
				if m.priority > best {
					next, best = b, m.priority
				}
			}
		}
		if next == nil {
			return
		}
		s.startLocked(next)
	}
}

// startLocked gives b a pass slot and starts its merged pass.
func (s *scheduler) startLocked(b *batch) {
	s.dropLocked(b)
	s.waiting -= len(b.members)
	s.running++
	now := s.now()
	merged := &pipeline.Request{Pattern: b.key.pattern}
	b.offs = make([]int, len(b.members))
	for i, m := range b.members {
		m.started = now
		m.off = len(merged.Queries)
		b.offs[i] = m.off
		merged.Queries = append(merged.Queries, m.queries...)
	}
	b.live = len(b.members)
	s.metrics.Count(obs.MetricServeBatches, 1)
	if len(b.members) > 1 {
		s.metrics.Count(obs.MetricServeCoalesced, int64(len(b.members)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	go s.runBatch(ctx, b, merged)
}

// runBatch runs b's pass, publishes its outcome and frees its slot.
func (s *scheduler) runBatch(ctx context.Context, b *batch, merged *pipeline.Request) {
	func() {
		// The merged pass runs outside any handler goroutine, so an engine
		// panic here would crash the daemon and leave b.done unclosed,
		// hanging every member. Convert it to the pass error instead; each
		// member's trailer path reports it as a 500.
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.Count(obs.MetricServePanics, 1)
				b.err = apiErrorf(http.StatusInternalServerError, "panic",
					"internal error during genome pass")
			}
		}()
		b.report, b.err = s.run(ctx, b.key.genome, merged, b.forward)
	}()
	b.cancel()
	if errors.Is(b.err, errAllMembersGone) {
		b.err = context.Canceled
	}
	close(b.done)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.dispatchLocked()
	s.changedLocked()
}

// forward demultiplexes one merged hit to its owning member, rewriting the
// query index into the member's own space. It calls the member's emit
// outside the batch mutex; a member that left is skipped, and one whose emit
// fails departs. The pass is aborted only when no member is listening at
// all.
func (b *batch) forward(h pipeline.Hit) error {
	// The member whose range holds h.QueryIndex is the last offset <= it.
	m := b.members[sort.SearchInts(b.offs, h.QueryIndex+1)-1]
	b.mu.Lock()
	live, gone := b.live, m.gone
	b.mu.Unlock()
	if live == 0 {
		return errAllMembersGone
	}
	if gone {
		return nil
	}
	h.QueryIndex -= m.off
	if err := m.emit(h); err != nil {
		b.mu.Lock()
		if !m.gone {
			m.err = err
			b.departLocked(m)
			close(m.quit)
		}
		b.mu.Unlock()
	}
	return nil
}

// departLocked marks a member of the running pass gone, and cancels the
// pass once every member is. Idempotent.
func (b *batch) departLocked(m *member) {
	if m.gone {
		return
	}
	m.gone = true
	b.live--
	if b.live == 0 {
		b.cancel()
	}
}

// Drain flips the scheduler into shutdown mode: every waiting member is
// shed with a 503 and every later arrival refused. Running passes are
// untouched — the caller waits for them separately.
func (s *scheduler) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for len(s.queue) > 0 {
		b := s.queue[0]
		s.shedLocked(b.members[0], s.reject(http.StatusServiceUnavailable, "draining", DefaultRetryAfter))
	}
	s.changedLocked()
}

// changedLocked mirrors the scheduler state into the registry and tells an
// observer.
func (s *scheduler) changedLocked() {
	s.metrics.Gauge(obs.MetricServeQueueDepth, float64(s.waiting))
	s.metrics.Gauge(obs.MetricServeInflight, float64(s.running))
	if s.observe != nil {
		s.observe()
	}
}
