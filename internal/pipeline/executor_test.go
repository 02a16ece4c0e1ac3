package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
)

// runChunks streams testReq over an n-chunk sequence on x. A run that
// succeeds must have emitted one hit per chunk, in plan order — the
// determinism contract.
func runChunks(t *testing.T, x *Executor, n int) ([]string, *Report, error) {
	t.Helper()
	asm := chunked(n)
	got, rep, err := stream(context.Background(), t, x, asm)
	if err == nil {
		sameStream(t, got, golden(t, asm))
	}
	return got, rep, err
}

// gate returns a Stage hook that opens the gate on its first call, and one
// that waits for the gate: the second slot cannot start before the first
// has a chunk in flight. A gate that stays shut fails the waiting Stage
// after five seconds instead of hanging the test.
func gate() (open, wait func(int) error) {
	var once sync.Once
	ch := make(chan struct{})
	return func(int) error { once.Do(func() { close(ch) }); return nil },
		func(int) error {
			select {
			case <-ch:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("the gate never opened")
			}
		}
}

func TestExecutorOrderedEmit(t *testing.T) {
	// Three devices with staggered speeds: the emit order must still be
	// plan order, whatever the settle interleaving was.
	b0 := &fakeBackend{}
	b1 := &fakeBackend{find: delay(200 * time.Microsecond)}
	b2 := &fakeBackend{find: delay(500 * time.Microsecond)}
	_, rep, err := runChunks(t, &Executor{Slots: slotsFor(b0, b1, b2)}, 12)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Chunks != 12 {
		t.Errorf("report chunks = %d, want 12", rep.Chunks)
	}
	if settled := b0.drained + b1.drained + b2.drained; settled != 12 {
		t.Errorf("slots drained %d chunks between them, want 12", settled)
	}
	if b0.closed != 1 || b1.closed != 1 || b2.closed != 1 {
		t.Errorf("backends closed %d/%d/%d times, want 1 each", b0.closed, b1.closed, b2.closed)
	}
}

func TestExecutorSlotsPullInPlanOrder(t *testing.T) {
	// Every Find returns only once all three slots are inside one — a
	// dispatcher that serialised chunks would never get there. Because each
	// slot pulls the lowest unclaimed index, the chunks that meet at the
	// barrier are always the next three of the plan. Emitting chunk e waits
	// until the slots have scanned every wave the reorder window lets them
	// reach (indices below e+2·slots), and no more: a slow emit holds the
	// slots back instead of letting scanned chunks pile up.
	const slots, chunks = 3, 12
	var (
		mu      sync.Mutex
		arrived []int
		waves   [][]int
		release = make(chan struct{})
		scanned = make(chan struct{}, chunks)
	)
	barrier := func(_ context.Context, ch *genome.Chunk, _ int) error {
		mu.Lock()
		arrived = append(arrived, ch.Start/12)
		wait := release
		if len(arrived) == slots {
			sort.Ints(arrived)
			waves, arrived = append(waves, arrived), nil
			release = make(chan struct{})
			close(wait)
		}
		mu.Unlock()
		select {
		case <-wait:
			scanned <- struct{}{}
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the slots were never all scanning at once")
		}
	}
	x := &Executor{Slots: slotsFor(&fakeBackend{find: barrier}, &fakeBackend{find: barrier}, &fakeBackend{find: barrier})}
	emitted, seen := 0, 0
	err := x.Stream(context.Background(), chunked(chunks), testReq(), func(Hit) error {
		// Wave w is scannable once its last index, 3w+2, is inside the window.
		reach := min(chunks, slots*((emitted+slots)/slots+1))
		for ; seen < reach; seen++ {
			select {
			case <-scanned:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("emitting chunk %d: the slots scanned %d chunks, want the window's %d", emitted, seen, reach)
			}
		}
		if n := len(scanned); n > 0 {
			return fmt.Errorf("emitting chunk %d: %d chunks scanned past the window's %d", emitted, n, reach)
		}
		emitted++
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for w, wave := range waves {
		if want := []int{slots * w, slots*w + 1, slots*w + 2}; fmt.Sprint(wave) != fmt.Sprint(want) {
			t.Errorf("wave %d scanned chunks %v together, want %v", w, wave, want)
		}
	}
	if emitted != chunks || len(waves) != chunks/slots {
		t.Errorf("emitted %d chunks in %d waves, want %d in %d", emitted, len(waves), chunks, chunks/slots)
	}
}

func TestExecutorReorderWindow(t *testing.T) {
	// One slot holds chunk 0 in Find. The others may run ahead only to the
	// reorder window — indices below 2·slots — and must then wait for the
	// collector; unbounded, they would scan the whole plan into its reorder
	// buffer. Staying inside the window can only be shown over an interval:
	// chunk 0 is held until the others have filled the window and then for
	// 50 ms more, or until one strays past it.
	const slots, chunks = 3, 20
	released := make(chan struct{})
	scanned := make(chan int, chunks) // indices scanned while chunk 0 is held
	find := func(_ context.Context, ch *genome.Chunk, _ int) error {
		if index := ch.Start / 12; index != 0 {
			select {
			case <-released:
			default:
				scanned <- index
			}
			return nil
		}
		defer close(released)
		stray := func(index int) error {
			return fmt.Errorf("chunk %d scanned while chunk 0 was held; the window ends at %d", index, 2*slots)
		}
		timeout := time.After(5 * time.Second)
		for n := 1; n < 2*slots; n++ {
			select {
			case index := <-scanned:
				if index >= 2*slots {
					return stray(index)
				}
			case <-timeout:
				return errors.New("the other slots never filled the reorder window")
			}
		}
		select {
		case index := <-scanned:
			return stray(index)
		case <-time.After(50 * time.Millisecond):
			return nil
		}
	}
	b := &fakeBackend{find: find}
	if _, _, err := runChunks(t, &Executor{Slots: slotsFor(b, b, b)}, chunks); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestExecutorOpensOnlyNeededSlots(t *testing.T) {
	// Two chunks, five slots: slots 0 and 1 open, the rest never do, so
	// which backends exist is a function of the plan, not of timing.
	var opened [5]atomic.Int64
	slots := make([]Slot, len(opened))
	for i := range slots {
		slots[i].Open = func(*Plan) (Backend, error) {
			opened[i].Add(1)
			return &fakeBackend{}, nil
		}
	}
	if _, _, err := runChunks(t, &Executor{Slots: slots}, 2); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := range opened {
		want := int64(0)
		if i < 2 {
			want = 1
		}
		if got := opened[i].Load(); got != want {
			t.Errorf("slot %d opened %d times, want %d", i, got, want)
		}
	}
}

func TestExecutorTransientRetries(t *testing.T) {
	// The first two Find calls fail transiently; the policy budget covers
	// them, so the run stays clean apart from the retry count.
	be := &fakeBackend{find: func(_ context.Context, ch *genome.Chunk, attempt int) error {
		if ch.Start == 0 && attempt < 2 {
			return fault.Errorf(fault.SiteCLEnqueue, fault.Transient, "flaky enqueue")
		}
		return nil
	}}
	x := &Executor{
		Slots:  slotsFor(be),
		Policy: &Resilience{MaxRetries: 3, BackoffBase: time.Microsecond, BackoffMax: time.Microsecond},
	}
	_, rep, err := runChunks(t, x, 6)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Retries != 2 {
		t.Errorf("retries = %d, want 2", rep.Retries)
	}
	if rep.Failovers != 0 {
		t.Errorf("clean retry run reports failovers=%d", rep.Failovers)
	}
}

func TestExecutorFleetFailsOverPerSlot(t *testing.T) {
	// Both slots die on every chunk: each fails its own chunks over to its
	// own fallback, opened the first time the slot needs it and closed with
	// the slot, and both keep serving the queue. The second slot waits at the
	// gate until the first has a chunk in flight, so both settle chunks.
	var (
		mu  sync.Mutex
		fbs []*fakeBackend
	)
	open, wait := gate()
	b0, b1 := &fakeBackend{find: fatal, stage: open}, &fakeBackend{find: fatal, stage: wait}
	x := &Executor{
		Slots: slotsFor(b0, b1),
		Policy: &Resilience{MaxRetries: -1, Fallback: func(*Plan) (Backend, error) {
			mu.Lock()
			defer mu.Unlock()
			fb := &fakeBackend{}
			fbs = append(fbs, fb)
			return fb, nil
		}},
	}
	_, rep, err := runChunks(t, x, 8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if b0.finds == 0 || b1.finds == 0 {
		t.Errorf("slots scanned %d/%d chunks, want both some of the 8", b0.finds, b1.finds)
	}
	if rep.Failovers != 8 || b0.finds+b1.finds != 8 {
		t.Errorf("failovers=%d over %d scans, want every one of the 8 chunks scanned once and failed over", rep.Failovers, b0.finds+b1.finds)
	}
	if len(fbs) != 2 {
		t.Fatalf("fallback opened %d times, want once per slot", len(fbs))
	}
	// Which slot opened which fallback is scheduling; each scanned exactly
	// its own slot's chunks.
	got, want := []int{fbs[0].finds, fbs[1].finds}, []int{b0.finds, b1.finds}
	sort.Ints(got)
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) || fbs[0].closed != 1 || fbs[1].closed != 1 {
		t.Errorf("fallbacks scanned %v chunks and closed %d/%d times, want the slots' own %v and once each",
			got, fbs[0].closed, fbs[1].closed, want)
	}
}

func TestExecutorFailingSlotKeepsClaiming(t *testing.T) {
	// A hung slot beside a healthy one: with no retry budget each watchdog
	// kill exhausts the slot, the chunk fails over on that slot, and the
	// slot claims the next chunk. The healthy slot waits at the gate until
	// the hung slot stages its second chunk, which it only does if it went
	// on claiming after the first failover.
	open, wait := gate()
	hung := &fakeBackend{find: hang, stage: func(call int) error {
		if call == 1 {
			return open(call)
		}
		return nil
	}}
	healthy, fb := &fakeBackend{stage: wait}, &fakeBackend{}
	x := &Executor{
		Slots:  slotsFor(hung, healthy),
		Policy: &Resilience{MaxRetries: -1, Watchdog: 5 * time.Millisecond, Fallback: opener(fb)},
	}
	_, rep, err := runChunks(t, x, 8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if hung.finds < 2 || hung.finds+healthy.drained != 8 {
		t.Errorf("slots settled %d/%d chunks, want at least 2 of the 8 on the hung slot", hung.finds, healthy.drained)
	}
	if n := int64(hung.finds); rep.WatchdogKills != n || rep.Failovers != n || fb.finds != hung.finds {
		t.Errorf("watchdog kills=%d failovers=%d fallback scans=%d, want one each per chunk the hung slot settled (%d)",
			rep.WatchdogKills, rep.Failovers, fb.finds, n)
	}
	if fb.closed != 1 {
		t.Errorf("fallback closed %d times, want 1", fb.closed)
	}
}

func TestExecutorLastSlotFailsOver(t *testing.T) {
	// One slot follows the several-slot rule: a chunk that exhausts the
	// slot fails over alone, and the chunks after it run on the slot's own
	// backend again — a single engine's per-chunk failover.
	fb := &fakeBackend{}
	be := &fakeBackend{find: func(ctx context.Context, ch *genome.Chunk, attempt int) error {
		if ch.Start == 24 {
			return fatal(ctx, ch, attempt)
		}
		return nil
	}}
	x := &Executor{
		Slots:  slotsFor(be),
		Policy: &Resilience{MaxRetries: -1, Fallback: opener(fb)},
	}
	_, rep, err := runChunks(t, x, 6)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Failovers != 1 || rep.Chunks != 6 {
		t.Errorf("report = %+v, want one failover, all 6 chunks settled by the slot", rep)
	}
	if be.finds != 6 || fb.finds != 1 {
		t.Errorf("primary scanned %d chunks and the fallback %d, want 6 and 1", be.finds, fb.finds)
	}
}

func TestExecutorQuarantineWithoutFallback(t *testing.T) {
	// A dead slot and no fallback: the run completes with every chunk
	// quarantined under the fault that failed it and a PartialError, not a
	// hard failure.
	x := &Executor{
		Slots:  slotsFor(&fakeBackend{find: fatal}),
		Policy: &Resilience{MaxRetries: -1},
	}
	hits, rep, err := runChunks(t, x, 5)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("run: %v, want PartialError", err)
	}
	if len(hits) != 0 {
		t.Errorf("quarantined run emitted %d hits", len(hits))
	}
	if len(rep.Quarantined) != 5 {
		t.Fatalf("quarantined %d chunks, want 5", len(rep.Quarantined))
	}
	for i, q := range rep.Quarantined {
		if q.Index != i || q.Attempts != 1 || fault.ClassOf(q.Err) != fault.Fatal {
			t.Fatalf("quarantine entry %d = %+v, want chunk %d after one fatal attempt", i, q, i)
		}
	}
}

func TestExecutorFailFastWithoutPolicy(t *testing.T) {
	// Hold the healthy slot at the gate until the failing one has a chunk
	// in flight, so it cannot drain the queue first.
	open, wait := gate()
	x := &Executor{Slots: slotsFor(&fakeBackend{find: fatal, stage: open}, &fakeBackend{stage: wait})}
	_, rep, err := runChunks(t, x, 8)
	if err == nil {
		t.Fatal("run succeeded, want fail-fast error")
	}
	if !strings.Contains(err.Error(), "injected fatal") {
		t.Errorf("error %v does not carry the cause", err)
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("fail-fast run quarantined %d chunks", len(rep.Quarantined))
	}
}

func TestExecutorOpenFailure(t *testing.T) {
	// A slot whose backend cannot open has nothing to serve the queue with:
	// the run fails with the open error, at any slot count and under any
	// policy. Every slot that runs opens before the run can end, so a healthy
	// slot that drains the queue first does not rescue it.
	broken := Slot{Open: func(*Plan) (Backend, error) {
		return nil, errors.New("no such device")
	}}
	for _, slots := range [][]Slot{{broken}, {broken, {Open: opener(&fakeBackend{})}}} {
		for _, policy := range []*Resilience{nil, {MaxRetries: -1, Fallback: opener(&fakeBackend{})}} {
			x := &Executor{Slots: slots, Policy: policy}
			if _, _, err := runChunks(t, x, 10); err == nil || !strings.Contains(err.Error(), "no such device") {
				t.Errorf("%d slots, policy %v: run %v, want the open error", len(slots), policy != nil, err)
			}
		}
	}
}

func TestExecutorNoDevices(t *testing.T) {
	err := (&Executor{}).Stream(context.Background(), chunked(1), testReq(), func(Hit) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no slots") {
		t.Fatalf("run: %v, want no-slots error", err)
	}
}

func TestExecutorEmitError(t *testing.T) {
	sentinel := errors.New("sink full")
	n := 0
	err := (&Executor{Slots: slotsFor(&fakeBackend{})}).Stream(context.Background(), chunked(6), testReq(), func(Hit) error {
		n++
		if n == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("run: %v, want emit error", err)
	}
}

func TestExecutorContextCancel(t *testing.T) {
	// Cancel from outside once the slot is inside a wedged Find: the run
	// must return context.Canceled promptly.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	inFind := make(chan struct{})
	x := &Executor{Slots: slotsFor(&fakeBackend{find: func(ctx context.Context, ch *genome.Chunk, attempt int) error {
		once.Do(func() { close(inFind) })
		return hang(ctx, ch, attempt)
	}})}
	done := make(chan error, 1)
	go func() {
		done <- x.Stream(ctx, chunked(10), testReq(), func(Hit) error { return nil })
	}()
	<-inFind
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
