package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"casoffinder/internal/pipeline"
)

// fakeClock is a manually advanced time source for the quota tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// wantReject asserts an error is a rejection with the reason.
func wantReject(t *testing.T, err error, status int, reason string) *RejectError {
	t.Helper()
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want a *RejectError(%s)", err, reason)
	}
	if rej.Status != status || rej.Reason != reason {
		t.Fatalf("rejected with (%d, %s), want (%d, %s)", rej.Status, rej.Reason, status, reason)
	}
	return rej
}

// awaitSched waits until cond, evaluated under the scheduler mutex after
// each change of its state, holds.
func awaitSched(t *testing.T, s *scheduler, cond func() bool) {
	t.Helper()
	met := make(chan struct{})
	var once sync.Once
	s.mu.Lock()
	s.observe = func() {
		if cond() {
			once.Do(func() { close(met) })
		}
	}
	s.observe()
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.observe = nil
		s.mu.Unlock()
	}()
	select {
	case <-met:
	case <-time.After(10 * time.Second):
		t.Fatal("the scheduler never reached the awaited state")
	}
}

// awaitWaiting waits until n members wait for their pass.
func awaitWaiting(t *testing.T, s *scheduler, n int) {
	t.Helper()
	awaitSched(t, s, func() bool { return s.waiting == n })
}

// openBatch waits until the open batch for key holds n members, and
// returns it.
func openBatch(t *testing.T, s *scheduler, key coalKey, n int) *batch {
	t.Helper()
	var b *batch
	awaitSched(t, s, func() bool {
		b = s.open[key]
		return b != nil && len(b.members) == n
	})
	return b
}

// gatedPass is a passFunc that announces each pass's merged request on
// started and holds the pass until the test sends on release (or the pass
// is cancelled).
type gatedPass struct {
	started chan *pipeline.Request
	release chan struct{}
}

func newGatedPass() *gatedPass {
	return &gatedPass{started: make(chan *pipeline.Request), release: make(chan struct{})}
}

func (g *gatedPass) run(ctx context.Context, _ string, req *pipeline.Request, _ func(pipeline.Hit) error) (*pipeline.Report, error) {
	select {
	case g.started <- req:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case <-g.release:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// nopPass is a passFunc that returns at once.
func nopPass(context.Context, string, *pipeline.Request, func(pipeline.Hit) error) (*pipeline.Report, error) {
	return nil, nil
}

// joiner submits requests to one scheduler: each with one guide, keyed by
// its pattern alone.
type joiner struct{ s *scheduler }

// join blocks until the request's pass ends or the request is refused,
// and returns its pass error.
func (j joiner) join(ctx context.Context, tenant, pattern string, priority int, guides ...string) error {
	m := &member{priority: priority, emit: func(pipeline.Hit) error { return nil }}
	for _, g := range guides {
		m.queries = append(m.queries, pipeline.Query{Guide: g})
	}
	_, err, _ := j.s.Join(ctx, tenant, coalKey{pattern: pattern}, m)
	return err
}

// async runs join on its own goroutine; its error arrives on the channel.
func (j joiner) async(ctx context.Context, pattern string, priority int, guides ...string) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- j.join(ctx, "t", pattern, priority, guides...) }()
	return ch
}

// holdSlot starts a pass that holds the scheduler's only slot until the
// test sends on g.release; the pass's error arrives on the channel.
func holdSlot(t *testing.T, j joiner, g *gatedPass) <-chan error {
	t.Helper()
	done := j.async(context.Background(), "HOLD", PriorityNormal)
	<-g.started
	return done
}

func TestQuotaTokenBucket(t *testing.T) {
	clk := newFakeClock()
	j := joiner{newScheduler(Limits{QuotaRate: 1, QuotaBurst: 2}.withDefaults(), 0, clk.now, nopPass, nil)}
	ctx := context.Background()

	// The burst admits two back to back; the third is over quota with an
	// exact refill hint.
	for i := 0; i < 2; i++ {
		if err := j.join(ctx, "alice", "P", PriorityNormal); err != nil {
			t.Fatalf("burst request %d rejected: %v", i, err)
		}
	}
	rej := wantReject(t, j.join(ctx, "alice", "P", PriorityNormal), http.StatusTooManyRequests, "quota")
	if rej.RetryAfter <= 0 || rej.RetryAfter > time.Second {
		t.Errorf("quota Retry-After = %v, want a refill wait within 1s", rej.RetryAfter)
	}

	// Quotas are per tenant: bob is unaffected by alice's burst.
	if err := j.join(ctx, "bob", "P", PriorityNormal); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}

	// A refill interval later, alice is welcome again.
	clk.advance(time.Second)
	if err := j.join(ctx, "alice", "P", PriorityNormal); err != nil {
		t.Fatalf("post-refill request rejected: %v", err)
	}
}

// TestShedNewestLowestPriority: with the queue full, a higher-priority
// arrival evicts the newest strictly-lower-priority waiter, and an
// equal-priority arrival is itself shed. A freed slot takes the batch with
// the highest-priority member, though an older batch waits.
func TestShedNewestLowestPriority(t *testing.T) {
	g := newGatedPass()
	s := newScheduler(Limits{MaxInflight: 1, MaxQueue: 2}.withDefaults(), 0, nil, g.run, nil)
	j := joiner{s}
	ctx := context.Background()
	holder := holdSlot(t, j, g)

	// Two low-priority waiters fill the queue, lowOld first.
	lowOld := j.async(ctx, "A", PriorityLow, "OLD")
	awaitWaiting(t, s, 1)
	lowNew := j.async(ctx, "A", PriorityLow, "NEW")
	awaitWaiting(t, s, 2)

	// Equal priority cannot claim a victim: the arrival sheds.
	wantReject(t, j.join(ctx, "t", "C", PriorityLow), http.StatusTooManyRequests, "queue-full")

	// A normal-priority arrival evicts the NEWEST low waiter.
	norm := j.async(ctx, "B", PriorityNormal, "NORM")
	wantReject(t, <-lowNew, http.StatusTooManyRequests, "shed")

	// Once both batches are ready, releasing the holder runs the
	// normal-priority batch first.
	awaitSched(t, s, func() bool {
		a, b := s.open[coalKey{pattern: "A"}], s.open[coalKey{pattern: "B"}]
		return a != nil && a.ready && b != nil && b.ready
	})
	g.release <- struct{}{}
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if req := <-g.started; req.Pattern != "B" {
		t.Fatalf("the freed slot ran batch %q, want the normal-priority batch B", req.Pattern)
	}
	select {
	case err := <-lowOld:
		t.Fatalf("old low-priority waiter resolved early: %v", err)
	default:
	}
	g.release <- struct{}{}
	if err := <-norm; err != nil {
		t.Fatalf("priority waiter rejected: %v", err)
	}
	// The shed member's guide does not ride in its batch's pass.
	if req := <-g.started; len(req.Queries) != 1 || req.Queries[0].Guide != "OLD" {
		t.Fatalf("batch A ran %+v, want the surviving waiter's guide alone", req.Queries)
	}
	g.release <- struct{}{}
	if err := <-lowOld; err != nil {
		t.Fatalf("surviving low-priority waiter rejected: %v", err)
	}
}

// TestDeadlineAwareRejection: a deadline that already passed refuses
// immediately, and one that expires while waiting sheds the waiter, whose
// guides then do not ride in its batch's pass.
func TestDeadlineAwareRejection(t *testing.T) {
	g := newGatedPass()
	s := newScheduler(Limits{MaxInflight: 1}.withDefaults(), 0, nil, g.run, nil)
	j := joiner{s}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	wantReject(t, j.join(expired, "t", "A", PriorityNormal), http.StatusTooManyRequests, "deadline")

	holder := holdSlot(t, j, g)
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	keeper := j.async(context.Background(), "A", PriorityNormal, "KEEP")
	awaitWaiting(t, s, 1)
	wantReject(t, j.join(short, "t", "A", PriorityNormal, "LATE"), http.StatusTooManyRequests, "deadline")

	g.release <- struct{}{}
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if req := <-g.started; len(req.Queries) != 1 || req.Queries[0].Guide != "KEEP" {
		t.Fatalf("the pass ran %+v, want the expired waiter's guide left out", req.Queries)
	}
	g.release <- struct{}{}
	if err := <-keeper; err != nil {
		t.Fatal(err)
	}
}

// TestAdmitContextCancellation: a caller that gives up while waiting leaves
// its batch and gets its context error back.
func TestAdmitContextCancellation(t *testing.T) {
	g := newGatedPass()
	s := newScheduler(Limits{MaxInflight: 1}.withDefaults(), 0, nil, g.run, nil)
	j := joiner{s}
	holder := holdSlot(t, j, g)

	ctx, cancel := context.WithCancel(context.Background())
	errc := j.async(ctx, "A", PriorityNormal)
	awaitWaiting(t, s, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	awaitSched(t, s, func() bool { return s.waiting == 0 && len(s.queue) == 0 })
	g.release <- struct{}{}
	<-holder
}

// TestLeaveDistinguishesShedFromStart: a member whose client leaves just
// after it was shed or drained reports the rejection, not a departure, and
// is not taken out of the queue twice; one whose pass started departs it,
// which cancels a pass with no member left. Every count returns to zero.
func TestLeaveDistinguishesShedFromStart(t *testing.T) {
	g := newGatedPass()
	s := newScheduler(Limits{MaxInflight: 1, MaxQueue: 1}.withDefaults(), 0, nil, g.run, nil)
	j := joiner{s}
	holder := holdSlot(t, j, g)
	gone, cancel := context.WithCancel(context.Background())
	cancel()

	// Evicted by a higher-priority arrival, then left.
	low := &member{priority: PriorityLow}
	lowDone := make(chan error, 1)
	go func() { _, err, _ := s.Join(context.Background(), "t", coalKey{pattern: "A"}, low); lowDone <- err }()
	awaitWaiting(t, s, 1)
	high := j.async(context.Background(), "B", PriorityHigh)
	wantReject(t, <-lowDone, http.StatusTooManyRequests, "shed")
	if _, err, _ := s.leave(gone, low); !errors.As(err, new(*RejectError)) {
		t.Fatalf("leave(shed) = %v, want the shed rejection", err)
	}
	awaitWaiting(t, s, 1) // the arrival still waits, counted once

	// Drained, then left.
	s.Drain()
	wantReject(t, <-high, http.StatusServiceUnavailable, "draining")
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()

	// Started, then left: the pass has no member left and is cancelled.
	g.release <- struct{}{}
	<-holder
	m := &member{priority: PriorityNormal, emit: func(pipeline.Hit) error { return nil }}
	done := make(chan error, 1)
	go func() { _, err, _ := s.Join(context.Background(), "t", coalKey{pattern: "C"}, m); done <- err }()
	<-g.started
	if _, err, _ := s.leave(gone, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("leave(started) = %v, want context.Canceled", err)
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("pass of a departed member ended with %v, want context.Canceled", err)
	}
	awaitSched(t, s, func() bool { return s.waiting == 0 && s.running == 0 && len(s.queue) == 0 })
}

// TestDrainShedsQueue: drain refuses new arrivals and sheds every waiter
// with 503s, leaving only the running passes to finish.
func TestDrainShedsQueue(t *testing.T) {
	g := newGatedPass()
	s := newScheduler(Limits{MaxInflight: 1}.withDefaults(), 0, nil, g.run, nil)
	j := joiner{s}
	holder := holdSlot(t, j, g)
	errc := j.async(context.Background(), "A", PriorityNormal)
	awaitWaiting(t, s, 1)

	s.Drain()
	wantReject(t, <-errc, http.StatusServiceUnavailable, "draining")
	wantReject(t, j.join(context.Background(), "t", "A", PriorityHigh),
		http.StatusServiceUnavailable, "draining")
	g.release <- struct{}{}
	if err := <-holder; err != nil {
		t.Fatalf("the running pass did not finish: %v", err)
	}
}

// TestFullBatchRunsAtOnce: a batch that reaches coalesceMaxGuides runs
// without waiting out its window, and later arrivals open a new batch.
func TestFullBatchRunsAtOnce(t *testing.T) {
	g := newGatedPass()
	s := newScheduler(Limits{}.withDefaults(), time.Hour, nil, g.run, nil)
	j := joiner{s}
	guides := make([]string, coalesceMaxGuides/2)
	first := j.async(context.Background(), "A", PriorityNormal, guides...)
	openBatch(t, s, coalKey{pattern: "A"}, 1)
	second := j.async(context.Background(), "A", PriorityNormal, guides...)
	if req := <-g.started; len(req.Queries) != coalesceMaxGuides {
		t.Fatalf("the full batch ran %d guides, want %d", len(req.Queries), coalesceMaxGuides)
	}
	third := j.async(context.Background(), "A", PriorityNormal, "X")
	b := openBatch(t, s, coalKey{pattern: "A"}, 1)
	s.ripen(b)
	if req := <-g.started; len(req.Queries) != 1 {
		t.Fatalf("the later arrival's pass ran %d guides, want 1", len(req.Queries))
	}
	g.release <- struct{}{}
	g.release <- struct{}{}
	for _, ch := range []<-chan error{first, second, third} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}
