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
	"casoffinder/internal/obs"
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
// has a chunk in flight.
func gate() (open, wait func(int) error) {
	var once sync.Once
	ch := make(chan struct{})
	return func(int) error { once.Do(func() { close(ch) }); return nil },
		func(int) error { <-ch; return nil }
}

func TestExecutorOrderedEmit(t *testing.T) {
	// Three devices with staggered speeds: the emit order must still be
	// plan order, whatever the settle interleaving was.
	b0 := &fakeBackend{}
	b1 := &fakeBackend{find: delay(200 * time.Microsecond)}
	b2 := &fakeBackend{find: delay(500 * time.Microsecond)}
	_, rep, err := runChunks(t, &Executor{Slots: fleet(b0, b1, b2)}, 12)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Chunks != 12 {
		t.Errorf("report chunks = %d, want 12", rep.Chunks)
	}
	settled := 0
	for _, d := range rep.Slots {
		settled += d.Chunks
	}
	if settled != 12 {
		t.Errorf("per-device chunks sum to %d, want 12", settled)
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
	// until the fleet has scanned every wave the reorder window lets it
	// reach (indices below e+2·slots), and no more: a slow emit holds the
	// fleet back instead of letting scanned chunks pile up.
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
			return errors.New("the fleet never had all its slots scanning at once")
		}
	}
	x := &Executor{Slots: fleet(&fakeBackend{find: barrier}, &fakeBackend{find: barrier}, &fakeBackend{find: barrier})}
	emitted, seen := 0, 0
	err := x.Stream(context.Background(), chunked(chunks), testReq(), func(Hit) error {
		// Wave w is scannable once its last index, 3w+2, is inside the window.
		reach := min(chunks, slots*((emitted+slots)/slots+1))
		for ; seen < reach; seen++ {
			select {
			case <-scanned:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("emitting chunk %d: the fleet scanned %d chunks, want the window's %d", emitted, seen, reach)
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
	if _, _, err := runChunks(t, &Executor{Slots: fleet(b, b, b)}, chunks); err != nil {
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
	_, rep, err := runChunks(t, &Executor{Slots: slots}, 2)
	if err != nil {
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
	if len(rep.Slots) != 2 || rep.Slots[1].Name != "pipeline/worker1" {
		t.Errorf("report rows = %+v, want the two slots that ran", rep.Slots)
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
		Slots:  fleet(be),
		Policy: &Resilience{MaxRetries: 3, BackoffBase: time.Microsecond, BackoffMax: time.Microsecond},
	}
	_, rep, err := runChunks(t, x, 6)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Retries != 2 {
		t.Errorf("retries = %d, want 2", rep.Retries)
	}
	if rep.Evictions != 0 || rep.Failovers != 0 {
		t.Errorf("clean retry run reports evictions=%d failovers=%d", rep.Evictions, rep.Failovers)
	}
}

func TestExecutorEvictionRedistributes(t *testing.T) {
	// Slot 0 fails fatally on first touch: it must be evicted and every
	// chunk — the failed one included, back in the queue at its index —
	// must finish on slot 1. The survivor waits at the gate until slot 0
	// has a chunk in flight, so it cannot drain the queue before the
	// failure happens.
	open, wait := gate()
	x := &Executor{
		Slots:  fleet(&fakeBackend{find: fatal, stage: open}, &fakeBackend{stage: wait}),
		Policy: &Resilience{MaxRetries: -1},
		Trace:  obs.NewTracer(),
	}
	_, rep, err := runChunks(t, x, 10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", rep.Evictions)
	}
	if rep.Slots[0].Chunks != 0 || rep.Slots[1].Chunks != 10 {
		t.Errorf("slots settled %d/%d chunks, want 0/10: the survivor settles all", rep.Slots[0].Chunks, rep.Slots[1].Chunks)
	}
	if rep.Failovers != 0 {
		t.Errorf("failovers = %d, want 0 (the survivor absorbed the chunk)", rep.Failovers)
	}
	var causes []string
	for _, sp := range x.Trace.Spans() {
		if sp.Name == "evict" {
			causes = append(causes, sp.Track+": "+fmt.Sprint(sp.Attrs))
		}
	}
	if len(causes) != 1 || !strings.HasPrefix(causes[0], "dev0: ") || !strings.Contains(causes[0], "injected fatal") {
		t.Errorf("evict instants %q, want one on dev0 carrying the fault", causes)
	}
}

func TestExecutorAllEvictedFallsBack(t *testing.T) {
	// Both slots die on every chunk: the first to exhaust a chunk is
	// evicted, the last live slot is not — it fails every chunk over to the
	// policy's fallback, one at a time, and keeps serving the queue.
	fb := &fakeBackend{}
	b0, b1 := &fakeBackend{find: fatal}, &fakeBackend{find: fatal}
	x := &Executor{
		Slots:  fleet(b0, b1),
		Policy: &Resilience{MaxRetries: -1, Fallback: opener(fb)},
	}
	_, rep, err := runChunks(t, x, 8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if c0, c1 := rep.Slots[0].Chunks, rep.Slots[1].Chunks; rep.Evictions != 1 || min(c0, c1) != 0 || max(c0, c1) != 8 {
		t.Errorf("evictions = %d (%+v), want all but the last live slot, which settles every chunk", rep.Evictions, rep.Slots)
	}
	if rep.Failovers != 8 || fb.finds != 8 {
		t.Errorf("failovers=%d fallback finds=%d, want one failover per chunk (8)", rep.Failovers, fb.finds)
	}
	if b0.finds+b1.finds != 9 {
		t.Errorf("the fleet tried %d scans, want 9: every chunk on the last slot, one on the evicted", b0.finds+b1.finds)
	}
	if fb.closed != 1 || b0.closed != 1 || b1.closed != 1 {
		t.Errorf("backends closed %d/%d, fallback %d times, want 1 each", b0.closed, b1.closed, fb.closed)
	}
}

func TestExecutorLastSlotFailsOver(t *testing.T) {
	// A one-slot fleet is its own last live slot: a chunk that exhausts it
	// fails over alone, nothing is evicted, and the chunks after it run on
	// the slot's own backend again — a single engine's per-chunk failover.
	fb := &fakeBackend{}
	be := &fakeBackend{find: func(ctx context.Context, ch *genome.Chunk, attempt int) error {
		if ch.Start == 24 {
			return fatal(ctx, ch, attempt)
		}
		return nil
	}}
	x := &Executor{
		Slots:  fleet(be),
		Policy: &Resilience{MaxRetries: -1, Fallback: opener(fb)},
	}
	_, rep, err := runChunks(t, x, 6)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Evictions != 0 || rep.Failovers != 1 || rep.Slots[0].Chunks != 6 {
		t.Errorf("report = %+v, want no eviction, one failover, all 6 chunks settled by the slot", rep)
	}
	if be.finds != 6 || fb.finds != 1 {
		t.Errorf("primary scanned %d chunks and the fallback %d, want 6 and 1", be.finds, fb.finds)
	}
}

func TestExecutorQuarantineWithoutFallback(t *testing.T) {
	// A dead fleet and no fallback: the run completes with every chunk
	// quarantined under the fault that failed it and a PartialError, not a
	// hard failure.
	x := &Executor{
		Slots:  fleet(&fakeBackend{find: fatal}),
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

func TestExecutorWatchdogEvicts(t *testing.T) {
	// A hung slot is reaped by the watchdog; with no retry budget the kill
	// evicts it and the survivor finishes the run. The survivor is held at
	// the gate until the hung slot has a chunk in flight, so it cannot
	// drain the queue before the hang happens.
	open, wait := gate()
	x := &Executor{
		Slots:  fleet(&fakeBackend{find: hang, stage: open}, &fakeBackend{stage: wait}),
		Policy: &Resilience{MaxRetries: -1, Watchdog: 5 * time.Millisecond},
	}
	_, rep, err := runChunks(t, x, 8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.WatchdogKills == 0 {
		t.Error("hung device never watchdog-killed")
	}
	if rep.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", rep.Evictions)
	}
}

func TestExecutorFailFastWithoutPolicy(t *testing.T) {
	// Hold the healthy slot at the gate until the failing one has a chunk
	// in flight, so it cannot drain the queue first.
	open, wait := gate()
	x := &Executor{Slots: fleet(&fakeBackend{find: fatal, stage: open}, &fakeBackend{stage: wait})}
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
	// A slot whose backend cannot open is evicted like any other failure;
	// the survivor serves the whole queue.
	devs := []Slot{
		{Name: "broken", Open: func(*Plan) (Backend, error) {
			return nil, errors.New("no such device")
		}},
		{Name: "ok", Open: opener(&fakeBackend{})},
	}
	x := &Executor{Slots: devs, Policy: &Resilience{MaxRetries: -1}}
	_, rep, err := runChunks(t, x, 10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Evictions != 1 {
		t.Errorf("open failure did not evict: evictions=%d", rep.Evictions)
	}
	if rep.Slots[0].Chunks != 0 || rep.Slots[1].Chunks != 10 {
		t.Errorf("slots settled %+v, want 0 chunks on the broken slot and 10 on the survivor", rep.Slots)
	}
	// The last live slot has nothing to serve the queue with: the run fails.
	x = &Executor{Slots: devs[:1], Policy: x.Policy}
	if _, _, err := runChunks(t, x, 10); err == nil || !strings.Contains(err.Error(), "no such device") {
		t.Errorf("run over a fleet that cannot open: %v, want the open error", err)
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
	err := (&Executor{Slots: fleet(&fakeBackend{})}).Stream(context.Background(), chunked(6), testReq(), func(Hit) error {
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
	x := &Executor{Slots: fleet(&fakeBackend{find: func(ctx context.Context, ch *genome.Chunk, attempt int) error {
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
