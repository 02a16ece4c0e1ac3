package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for the admission tests.
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

// wantReject asserts an admission error is a rejection with the reason.
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

// queueLen reads the controller's queue depth.
func queueLen(a *admission) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// waitQueued polls until the queue holds n tickets.
func waitQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queueLen(a) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d tickets (at %d)", n, queueLen(a))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQuotaTokenBucket(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(Limits{QuotaRate: 1, QuotaBurst: 2}.withDefaults(), clk.now, nil)
	ctx := context.Background()

	// The burst admits two back to back; the third is over quota with an
	// exact refill hint.
	for i := 0; i < 2; i++ {
		tk := newTicket("alice", PriorityNormal, time.Time{})
		if err := a.Admit(ctx, tk); err != nil {
			t.Fatalf("burst request %d rejected: %v", i, err)
		}
		defer a.Release()
	}
	rej := wantReject(t, a.Admit(ctx, newTicket("alice", PriorityNormal, time.Time{})),
		http.StatusTooManyRequests, "quota")
	if rej.RetryAfter <= 0 || rej.RetryAfter > time.Second {
		t.Errorf("quota Retry-After = %v, want a refill wait within 1s", rej.RetryAfter)
	}

	// Quotas are per tenant: bob is unaffected by alice's burst.
	tk := newTicket("bob", PriorityNormal, time.Time{})
	if err := a.Admit(ctx, tk); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	a.Release()

	// A refill interval later, alice is welcome again.
	clk.advance(time.Second)
	tk = newTicket("alice", PriorityNormal, time.Time{})
	if err := a.Admit(ctx, tk); err != nil {
		t.Fatalf("post-refill request rejected: %v", err)
	}
	a.Release()
}

// TestShedNewestLowestPriority: with the queue full, a high-priority arrival
// evicts the newest strictly-lower-priority waiter; an equal-priority
// arrival is itself shed.
func TestShedNewestLowestPriority(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(Limits{MaxInflight: 1, MaxQueue: 2}.withDefaults(), clk.now, nil)
	ctx := context.Background()

	holder := newTicket("h", PriorityNormal, time.Time{})
	if err := a.Admit(ctx, holder); err != nil {
		t.Fatal(err)
	}

	// Two low-priority waiters fill the queue; lowOldErr enqueued first.
	lowOld := newTicket("old", PriorityLow, time.Time{})
	lowNew := newTicket("new", PriorityLow, time.Time{})
	errs := make(map[*ticket]chan error)
	for i, tk := range []*ticket{lowOld, lowNew} {
		ch := make(chan error, 1)
		errs[tk] = ch
		go func() { ch <- a.Admit(ctx, tk) }()
		waitQueued(t, a, i+1)
		clk.advance(time.Millisecond) // distinct enqueue times
	}

	// Equal priority cannot claim a victim: the arrival sheds.
	wantReject(t, a.Admit(ctx, newTicket("eq", PriorityLow, time.Time{})),
		http.StatusTooManyRequests, "queue-full")

	// A normal-priority arrival evicts the NEWEST low waiter.
	norm := newTicket("n", PriorityNormal, time.Time{})
	normCh := make(chan error, 1)
	go func() { normCh <- a.Admit(ctx, norm) }()
	wantReject(t, <-errs[lowNew], http.StatusTooManyRequests, "shed")

	// Releasing the holder dispatches by priority: norm before lowOld.
	a.Release()
	if err := <-normCh; err != nil {
		t.Fatalf("priority waiter rejected: %v", err)
	}
	select {
	case err := <-errs[lowOld]:
		t.Fatalf("old low-priority waiter resolved early: %v", err)
	default:
	}
	a.Release()
	if err := <-errs[lowOld]; err != nil {
		t.Fatalf("surviving low-priority waiter rejected: %v", err)
	}
	a.Release()
}

// TestDeadlineAwareRejection: a deadline that already passed refuses
// immediately, and one that expires while queued sheds the waiter rather
// than dispatching a doomed request.
func TestDeadlineAwareRejection(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(Limits{MaxInflight: 1}.withDefaults(), clk.now, nil)
	ctx := context.Background()

	expired := newTicket("t", PriorityNormal, clk.now().Add(-time.Second))
	wantReject(t, a.Admit(ctx, expired), http.StatusTooManyRequests, "deadline")

	holder := newTicket("h", PriorityNormal, time.Time{})
	if err := a.Admit(ctx, holder); err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	// The queued ticket's deadline timer runs on the real clock; give it a
	// short real deadline.
	queued := newTicket("q", PriorityNormal, clk.now().Add(30*time.Millisecond))
	wantReject(t, a.Admit(ctx, queued), http.StatusTooManyRequests, "deadline")
	if queueLen(a) != 0 {
		t.Errorf("expired ticket still queued")
	}
}

// TestAdmitContextCancellation: a caller that gives up while queued is
// removed from the queue and gets its context error back.
func TestAdmitContextCancellation(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(Limits{MaxInflight: 1}.withDefaults(), clk.now, nil)
	holder := newTicket("h", PriorityNormal, time.Time{})
	if err := a.Admit(context.Background(), holder); err != nil {
		t.Fatal(err)
	}
	defer a.Release()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.Admit(ctx, newTicket("q", PriorityNormal, time.Time{})) }()
	waitQueued(t, a, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if queueLen(a) != 0 {
		t.Errorf("cancelled ticket still queued")
	}
}

// enqueue plants a ticket directly in the controller's queue, bypassing
// Admit's blocking select, so tests can race withdraw against eviction and
// dispatch deterministically.
func enqueue(a *admission, tk *ticket) {
	a.mu.Lock()
	tk.queued = true
	tk.enqueued = a.now()
	a.queue = append(a.queue, tk)
	a.mu.Unlock()
}

// TestWithdrawDistinguishesShedFromGrant: a ticket that left the queue by
// eviction must surface its shed rejection from withdraw — not read as "slot
// granted", which would let the caller run past MaxInflight and drive the
// admission counters negative on Release. Only a dispatched ticket reports a
// granted slot.
func TestWithdrawDistinguishesShedFromGrant(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(Limits{MaxInflight: 1}.withDefaults(), clk.now, nil)
	holder := newTicket("h", PriorityNormal, time.Time{})
	if err := a.Admit(context.Background(), holder); err != nil {
		t.Fatal(err)
	}

	// Evicted ticket: withdraw reports the shed, never a grant.
	shedTk := newTicket("shed", PriorityLow, time.Time{})
	enqueue(a, shedTk)
	a.mu.Lock()
	a.evictLocked(0)
	a.mu.Unlock()
	withdrawn, rej := a.withdraw(shedTk)
	if withdrawn || rej == nil {
		t.Fatalf("withdraw(evicted) = (%v, %v), want (false, shed rejection)", withdrawn, rej)
	}

	// Drained ticket: same contract.
	drainTk := newTicket("drained", PriorityNormal, time.Time{})
	enqueue(a, drainTk)
	a.Drain()
	withdrawn, rej = a.withdraw(drainTk)
	if withdrawn || rej == nil || rej.Status != http.StatusServiceUnavailable {
		t.Fatalf("withdraw(drained) = (%v, %v), want (false, 503 rejection)", withdrawn, rej)
	}
	a.mu.Lock()
	a.draining = false
	a.mu.Unlock()

	// Dispatched ticket: withdraw reports a granted slot (nil rejection).
	grantTk := newTicket("granted", PriorityNormal, time.Time{})
	enqueue(a, grantTk)
	a.Release() // frees the slot and dispatches grantTk
	withdrawn, rej = a.withdraw(grantTk)
	if withdrawn || rej != nil {
		t.Fatalf("withdraw(dispatched) = (%v, %v), want (false, nil = slot held)", withdrawn, rej)
	}
	a.Release()

	// The bounds survived the whole dance: everything released, nothing
	// negative, so a fresh request is admitted on the fast path.
	a.mu.Lock()
	inflight, queued := a.inflight, len(a.queue)
	a.mu.Unlock()
	if inflight != 0 || queued != 0 {
		t.Fatalf("controller state after releases: inflight=%d queued=%d, want both 0", inflight, queued)
	}
}

// TestDrainShedsQueue: drain refuses new arrivals and sheds every waiter
// with 503s, leaving only the running requests to finish.
func TestDrainShedsQueue(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(Limits{MaxInflight: 1}.withDefaults(), clk.now, nil)
	holder := newTicket("h", PriorityNormal, time.Time{})
	if err := a.Admit(context.Background(), holder); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- a.Admit(context.Background(), newTicket("q", PriorityNormal, time.Time{})) }()
	waitQueued(t, a, 1)

	a.Drain()
	wantReject(t, <-errc, http.StatusServiceUnavailable, "draining")
	wantReject(t, a.Admit(context.Background(), newTicket("late", PriorityHigh, time.Time{})),
		http.StatusServiceUnavailable, "draining")
	a.Release()
}
