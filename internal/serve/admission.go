// Admission control: the bounded front door of the daemon. Every request
// passes three gates before it may touch an engine — a per-tenant token
// bucket (keyed by API key), a deadline that must not already have passed,
// and a bounded queue whose overflow policy sheds the newest lowest-priority
// work first. Rejections are always explicit 429/503s with a Retry-After
// hint; nothing ever queues unboundedly, so a 3x-overcapacity burst holds at
// most (MaxInflight + MaxQueue) request bodies of MaxBodyBytes each, and the
// requests that are admitted keep their latency.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"casoffinder/internal/obs"
)

// Limits bounds the daemon's intake. The zero value of each field selects
// the documented default; quotas are off unless QuotaRate is set.
type Limits struct {
	// MaxInflight bounds the requests executing genome passes concurrently.
	MaxInflight int
	// MaxQueue bounds the requests waiting for an execution slot; arrivals
	// beyond it shed (see Admit).
	MaxQueue int
	// MaxBodyBytes caps one request body (413 beyond it).
	MaxBodyBytes int64
	// MaxGuides caps the guides of one request (400 beyond it).
	MaxGuides int
	// QuotaRate and QuotaBurst shape the per-tenant token bucket: tokens
	// refill at QuotaRate per second up to QuotaBurst, one token per
	// request. QuotaRate 0 disables quotas.
	QuotaRate  float64
	QuotaBurst float64
}

// Default limits.
const (
	DefaultMaxInflight  = 4
	DefaultMaxQueue     = 64
	DefaultMaxBodyBytes = 1 << 20
	DefaultMaxGuides    = 256
	DefaultQuotaBurst   = 8
	// DefaultRetryAfter is the hint on every queue-pressure and drain
	// rejection; quota rejections compute the exact refill wait instead.
	DefaultRetryAfter = time.Second
)

// withDefaults resolves zero fields to the package defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxInflight <= 0 {
		l.MaxInflight = DefaultMaxInflight
	}
	if l.MaxQueue <= 0 {
		l.MaxQueue = DefaultMaxQueue
	}
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if l.MaxGuides <= 0 {
		l.MaxGuides = DefaultMaxGuides
	}
	if l.QuotaRate > 0 && l.QuotaBurst <= 0 {
		l.QuotaBurst = DefaultQuotaBurst
	}
	return l
}

// RejectError is an admission refusal: the HTTP status (429 under load, 503
// while draining), the shed reason and the Retry-After hint.
type RejectError struct {
	Status     int
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("serve: rejected (%s), retry after %v", e.Reason, e.RetryAfter)
}

// ticket is one request's admission state.
type ticket struct {
	tenant   string
	priority int
	deadline time.Time // zero = none
	enqueued time.Time

	// admit is closed when a slot is granted; shed receives the rejection
	// when the ticket is evicted from the queue instead.
	admit chan struct{}
	shed  chan *RejectError
	// queued marks the ticket as still sitting in the queue slice; guarded
	// by the admission mutex.
	queued bool
}

// newTicket builds a ticket for one request.
func newTicket(tenant string, priority int, deadline time.Time) *ticket {
	return &ticket{
		tenant:   tenant,
		priority: priority,
		deadline: deadline,
		admit:    make(chan struct{}),
		shed:     make(chan *RejectError, 1),
	}
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills the bucket to now and claims one token, returning 0 on
// success or the wait until the next token otherwise.
func (b *bucket) take(rate, burst float64, now time.Time) time.Duration {
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * rate
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Millisecond
	}
	return wait
}

// admission is the controller. All state sits behind one mutex; the queue is
// small by construction (MaxQueue), so linear scans are fine.
type admission struct {
	lim     Limits
	now     func() time.Time
	metrics *obs.Metrics

	mu       sync.Mutex
	tenants  map[string]*bucket
	queue    []*ticket
	inflight int
	draining bool
}

// newAdmission builds a controller for resolved limits.
func newAdmission(lim Limits, now func() time.Time, m *obs.Metrics) *admission {
	if now == nil {
		now = time.Now
	}
	return &admission{lim: lim, now: now, metrics: m, tenants: make(map[string]*bucket)}
}

// gaugesLocked mirrors the controller state into the registry.
func (a *admission) gaugesLocked() {
	a.metrics.Gauge(obs.MetricServeQueueDepth, float64(len(a.queue)))
	a.metrics.Gauge(obs.MetricServeInflight, float64(a.inflight))
}

// reject counts and builds a refusal.
func (a *admission) reject(status int, reason string, retryAfter time.Duration) *RejectError {
	a.metrics.Count(obs.L(obs.MetricServeShed, "reason", reason), 1)
	return &RejectError{Status: status, Reason: reason, RetryAfter: retryAfter}
}

// Admit runs the three gates for one ticket and blocks until the request
// holds an execution slot, is shed, or its context/deadline gives out.
// A nil return means the slot is held and Release must be called.
func (a *admission) Admit(ctx context.Context, tk *ticket) error {
	a.mu.Lock()
	if a.draining {
		defer a.mu.Unlock()
		return a.reject(http.StatusServiceUnavailable, "draining", DefaultRetryAfter)
	}
	now := a.now()
	// Gate 1: per-tenant quota.
	if a.lim.QuotaRate > 0 {
		b := a.tenants[tk.tenant]
		if b == nil {
			b = &bucket{tokens: a.lim.QuotaBurst, last: now}
			a.tenants[tk.tenant] = b
		}
		if wait := b.take(a.lim.QuotaRate, a.lim.QuotaBurst, now); wait > 0 {
			defer a.mu.Unlock()
			return a.reject(http.StatusTooManyRequests, "quota", wait)
		}
	}
	// Gate 2: a deadline that already passed can never be met; refuse it
	// before it costs a queue slot.
	if !tk.deadline.IsZero() && !now.Before(tk.deadline) {
		defer a.mu.Unlock()
		return a.reject(http.StatusTooManyRequests, "deadline", DefaultRetryAfter)
	}
	// Fast path: an idle slot with no queue ahead of us.
	if a.inflight < a.lim.MaxInflight && len(a.queue) == 0 {
		a.inflight++
		a.gaugesLocked()
		a.mu.Unlock()
		return nil
	}
	// Gate 3: bounded queue with load shedding. With the queue full, the
	// newest strictly-lower-priority queued request is evicted to make
	// room; when no such victim exists, the arrival itself is shed.
	if len(a.queue) >= a.lim.MaxQueue {
		vi := a.victimLocked(tk.priority)
		if vi < 0 {
			defer a.mu.Unlock()
			return a.reject(http.StatusTooManyRequests, "queue-full", DefaultRetryAfter)
		}
		a.evictLocked(vi)
	}
	tk.enqueued = now
	tk.queued = true
	a.queue = append(a.queue, tk)
	a.gaugesLocked()
	a.mu.Unlock()

	var deadlineC <-chan time.Time
	if !tk.deadline.IsZero() {
		t := time.NewTimer(tk.deadline.Sub(now))
		defer t.Stop()
		deadlineC = t.C
	}
	select {
	case <-tk.admit:
		a.metrics.Observe(obs.MetricServeQueueSeconds, a.now().Sub(tk.enqueued).Seconds())
		return nil
	case rej := <-tk.shed:
		return rej
	case <-deadlineC:
		// Deadline-aware rejection: the budget ran out while still queued,
		// so the client is told to back off rather than handed a doomed
		// stream. If dispatch raced us, keep the slot; if a shed raced us,
		// the rejection wins.
		if withdrawn, rej := a.withdraw(tk); !withdrawn {
			if rej != nil {
				return rej
			}
			return nil
		}
		return a.reject(http.StatusTooManyRequests, "deadline", DefaultRetryAfter)
	case <-ctx.Done():
		if withdrawn, rej := a.withdraw(tk); !withdrawn {
			if rej != nil {
				return rej
			}
			return nil
		}
		return ctx.Err()
	}
}

// withdraw removes a waiting ticket from the queue. withdrawn reports whether
// the ticket was still queued; when false the ticket already left the queue
// another way, and rej disambiguates how: non-nil means it was shed (evicted
// or drained, so the caller holds nothing), nil means dispatchLocked granted
// it a slot the caller now owns and must Release. Both departures happen
// under a.mu — the eviction buffers its rejection on tk.shed before the lock
// is released — so once we hold the lock the channel state is settled.
func (a *admission) withdraw(tk *ticket) (withdrawn bool, rej *RejectError) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !tk.queued {
		select {
		case r := <-tk.shed:
			return false, r
		default:
			return false, nil
		}
	}
	for i, q := range a.queue {
		if q == tk {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			break
		}
	}
	tk.queued = false
	a.gaugesLocked()
	return true, nil
}

// victimLocked picks the shed victim for an arrival at the given priority:
// the lowest-priority queued ticket, newest first among equals, and only if
// strictly lower-priority than the arrival. Returns -1 when every queued
// ticket is at least as important.
func (a *admission) victimLocked(arriving int) int {
	vi := -1
	for i, q := range a.queue {
		if q.priority >= arriving {
			continue
		}
		if vi < 0 || q.priority < a.queue[vi].priority ||
			(q.priority == a.queue[vi].priority && !q.enqueued.Before(a.queue[vi].enqueued)) {
			vi = i
		}
	}
	return vi
}

// evictLocked sheds the queued ticket at index i.
func (a *admission) evictLocked(i int) {
	tk := a.queue[i]
	a.queue = append(a.queue[:i], a.queue[i+1:]...)
	tk.queued = false
	tk.shed <- a.reject(http.StatusTooManyRequests, "shed", DefaultRetryAfter)
}

// Release frees a held slot and dispatches as many waiters as now fit.
func (a *admission) Release() {
	a.mu.Lock()
	a.inflight--
	a.dispatchLocked()
	a.gaugesLocked()
	a.mu.Unlock()
}

// dispatchLocked grants slots to waiting tickets: highest priority first,
// oldest first within a priority.
func (a *admission) dispatchLocked() {
	for len(a.queue) > 0 && a.inflight < a.lim.MaxInflight {
		best := 0
		for i, q := range a.queue[1:] {
			if q.priority > a.queue[best].priority {
				best = i + 1
			}
		}
		tk := a.queue[best]
		a.queue = append(a.queue[:best], a.queue[best+1:]...)
		tk.queued = false
		a.inflight++
		close(tk.admit)
	}
}

// Drain flips the controller into shutdown mode: every queued ticket is shed
// with a 503 and every later Admit refuses immediately. Running requests are
// untouched — the caller waits for them separately.
func (a *admission) Drain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.draining = true
	for _, tk := range a.queue {
		tk.queued = false
		tk.shed <- a.reject(http.StatusServiceUnavailable, "draining", DefaultRetryAfter)
	}
	a.queue = nil
	a.gaugesLocked()
}
