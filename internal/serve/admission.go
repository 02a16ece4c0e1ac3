// Admission: the front gates of the pass scheduler (sched.go). Every request
// passes them before it may wait for a genome pass — the drain check, a
// per-tenant token bucket (keyed by API key), a deadline that must not
// already have passed, and the bound on waiting requests, whose overflow
// policy sheds the newest lowest-priority waiter first. Rejections are
// always explicit 429/503s with a Retry-After hint; nothing ever waits
// unboundedly.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"casoffinder/internal/obs"
)

// Limits bounds the daemon's intake. The zero value of each field selects
// the documented default; quotas are off unless QuotaRate is set.
type Limits struct {
	// MaxInflight is the number of pass slots: the genome passes that run
	// at once. Config.SerializePasses overrides it with one.
	MaxInflight int
	// MaxQueue bounds the requests waiting in batches for their pass;
	// arrivals beyond it shed (see admitLocked).
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

// reject counts and builds a refusal.
func (s *scheduler) reject(status int, reason string, retryAfter time.Duration) *RejectError {
	s.metrics.Count(obs.L(obs.MetricServeShed, "reason", reason), 1)
	return &RejectError{Status: status, Reason: reason, RetryAfter: retryAfter}
}

// admitLocked runs the gates for an arrival of the given tenant and
// priority, whose deadline (if any) is ctx's. A nil return means the arrival
// may wait: when MaxQueue requests already wait, the newest
// strictly-lower-priority one has been shed to make room. Otherwise the
// arrival itself is refused.
func (s *scheduler) admitLocked(ctx context.Context, tenant string, priority int) *RejectError {
	if s.draining {
		return s.reject(http.StatusServiceUnavailable, "draining", DefaultRetryAfter)
	}
	now := s.now()
	if s.lim.QuotaRate > 0 {
		b := s.tenants[tenant]
		if b == nil {
			b = &bucket{tokens: s.lim.QuotaBurst, last: now}
			s.tenants[tenant] = b
		}
		if wait := b.take(s.lim.QuotaRate, s.lim.QuotaBurst, now); wait > 0 {
			return s.reject(http.StatusTooManyRequests, "quota", wait)
		}
	}
	// A deadline that already passed can never be met; refuse it before it
	// costs a place in the queue.
	if dl, ok := ctx.Deadline(); ok && !now.Before(dl) {
		return s.reject(http.StatusTooManyRequests, "deadline", DefaultRetryAfter)
	}
	if s.waiting >= s.lim.MaxQueue {
		v := s.victimLocked(priority)
		if v == nil {
			return s.reject(http.StatusTooManyRequests, "queue-full", DefaultRetryAfter)
		}
		s.shedLocked(v, s.reject(http.StatusTooManyRequests, "shed", DefaultRetryAfter))
	}
	return nil
}

// victimLocked picks the shed victim for an arrival at the given priority:
// the lowest-priority waiting member, newest first among equals, and only if
// strictly lower-priority than the arrival. Nil when every waiting member is
// at least as important.
func (s *scheduler) victimLocked(arriving int) *member {
	var v *member
	for _, b := range s.queue {
		for _, m := range b.members {
			if m.priority < arriving && (v == nil || m.priority < v.priority ||
				(m.priority == v.priority && m.seq > v.seq)) {
				v = m
			}
		}
	}
	return v
}
