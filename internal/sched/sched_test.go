package sched

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
	"casoffinder/internal/pipeline"
)

// --- fake backend -----------------------------------------------------------

// fakeBackend is a minimal pipeline.Backend whose hits are a pure function
// of the chunk (one hit at the chunk's start position), so the emitted
// stream depends only on plan order, never on which device ran what.
type fakeBackend struct {
	// delay slows every Find, simulating a slow device.
	delay time.Duration
	// failFind, when set, decides the error of the n-th Find call (n
	// counts from 0) for the given chunk start.
	failFind func(start, call int) error
	// hangFind makes every Find block until its context is cancelled.
	hangFind bool
	// stageHook, when set, runs at the top of every Stage call.
	stageHook func()

	mu     sync.Mutex
	finds  int
	staged int
	closed int
}

func (b *fakeBackend) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	if b.stageHook != nil {
		b.stageHook()
	}
	b.mu.Lock()
	b.staged++
	b.mu.Unlock()
	return ch, nil
}

func (b *fakeBackend) Find(ctx context.Context, st pipeline.Staged) (int, error) {
	b.mu.Lock()
	call := b.finds
	b.finds++
	b.mu.Unlock()
	if b.hangFind {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	if b.delay > 0 {
		select {
		case <-time.After(b.delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if b.failFind != nil {
		if err := b.failFind(st.(*genome.Chunk).Start, call); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

func (b *fakeBackend) Compare(ctx context.Context, st pipeline.Staged, qi int) error { return nil }

func (b *fakeBackend) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]pipeline.Hit, error) {
	ch := st.(*genome.Chunk)
	return []pipeline.Hit{{
		QueryIndex: 0,
		SeqName:    ch.SeqName,
		Pos:        ch.Start,
		Dir:        '+',
		Site:       fmt.Sprintf("chunk@%d", ch.Start),
	}}, nil
}

func (b *fakeBackend) Close() error {
	b.mu.Lock()
	b.closed++
	b.mu.Unlock()
	return nil
}

// fatalAlways fails every Find with a fatal fault.
func fatalAlways(start, call int) error {
	return fault.Errorf(fault.SiteLaunch, fault.Fatal, "injected fatal at %d", start)
}

// --- plan/assembly fixtures -------------------------------------------------

// testPlan compiles a tiny all-N plan whose chunker cuts the assembly into
// ~nChunks chunks of 12 site positions each.
func testPlan(t *testing.T, nChunks int) (*pipeline.Plan, *genome.Assembly) {
	t.Helper()
	req := &pipeline.Request{
		Pattern:    "NNNNN",
		Queries:    []pipeline.Query{{Guide: "NNNNN", MaxMismatches: 5}},
		ChunkBytes: 16, // body = 16 - (5-1) = 12 positions per chunk
	}
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	seqLen := 12*nChunks + 4
	data := make([]byte, seqLen)
	for i := range data {
		data[i] = "ACGT"[i%4]
	}
	asm := &genome.Assembly{Sequences: []*genome.Sequence{{Name: "chr1", Data: data}}}
	chunks, err := plan.Chunker.Plan(asm)
	if err != nil {
		t.Fatalf("chunk plan: %v", err)
	}
	if len(chunks) != nChunks {
		t.Fatalf("fixture produced %d chunks, want %d", len(chunks), nChunks)
	}
	return plan, asm
}

// runExec executes x over a fresh nChunks-fixture and returns the emitted
// hits, the report, and the run's error.
func runExec(t *testing.T, x *Executor, nChunks int) ([]pipeline.Hit, *Report, error) {
	t.Helper()
	plan, asm := testPlan(t, nChunks)
	var rep *Report
	prev := x.OnReport
	x.OnReport = func(r *Report) {
		if rep != nil {
			t.Error("OnReport called twice")
		}
		rep = r
		if prev != nil {
			prev(r)
		}
	}
	var hits []pipeline.Hit
	err := x.execute(context.Background(), plan, asm, func(h pipeline.Hit) error {
		hits = append(hits, h)
		return nil
	})
	if rep == nil {
		t.Fatal("OnReport never called")
	}
	return hits, rep, err
}

// wantOrdered asserts the hit stream is exactly one hit per chunk, in plan
// order — the determinism contract.
func wantOrdered(t *testing.T, hits []pipeline.Hit, nChunks int) {
	t.Helper()
	if len(hits) != nChunks {
		t.Fatalf("got %d hits, want %d", len(hits), nChunks)
	}
	for i, h := range hits {
		if want := 12 * i; h.Pos != want {
			t.Fatalf("hit %d at pos %d, want %d (out-of-order emit)", i, h.Pos, want)
		}
	}
}

// --- Executor ---------------------------------------------------------------

func fleet(bes ...*fakeBackend) []Slot {
	slots := make([]Slot, len(bes))
	for i, be := range bes {
		be := be
		slots[i] = Slot{
			Name: fmt.Sprintf("dev%d", i),
			Open: func(*pipeline.Plan) (pipeline.Backend, error) { return be, nil },
		}
	}
	return slots
}

func TestExecutorOrderedEmit(t *testing.T) {
	// Three devices with staggered speeds: the emit order must still be
	// plan order, whatever the settle interleaving was.
	b0 := &fakeBackend{}
	b1 := &fakeBackend{delay: 200 * time.Microsecond}
	b2 := &fakeBackend{delay: 500 * time.Microsecond}
	x := &Executor{Slots: fleet(b0, b1, b2)}
	hits, rep, err := runExec(t, x, 12)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 12)
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
	// barrier are always the next three of the plan, so the collector never
	// waits on more than a fleet's worth of settled chunks; and because a
	// slot hands over each result before it claims again, a slow emit holds
	// the fleet back instead of letting scanned chunks pile up.
	const slots, chunks = 3, 12
	var (
		mu      sync.Mutex
		arrived []int
		waves   [][]int
		release = make(chan struct{})
		scanned atomic.Int64
	)
	barrier := func(start, _ int) error {
		mu.Lock()
		arrived = append(arrived, start/12)
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
			scanned.Add(1)
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the fleet never had all its slots scanning at once")
		}
	}
	x := &Executor{Slots: fleet(&fakeBackend{failFind: barrier}, &fakeBackend{failFind: barrier}, &fakeBackend{failFind: barrier})}
	plan, asm := testPlan(t, chunks)
	emitted := 0
	err := x.execute(context.Background(), plan, asm, func(pipeline.Hit) error {
		time.Sleep(200 * time.Microsecond)
		// Unemitted: at most a wave reordering, a wave in the results
		// channel and a wave in the slots' hands.
		if ahead := int(scanned.Load()) - emitted; ahead > 3*slots {
			return fmt.Errorf("%d chunks scanned ahead of the emit cursor, want at most %d", ahead, 3*slots)
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

func TestExecutorOpensOnlyNeededSlots(t *testing.T) {
	// Two chunks, five slots: slots 0 and 1 open, the rest never do, so
	// which backends exist is a function of the plan, not of timing.
	var opened [5]atomic.Int64
	slots := make([]Slot, len(opened))
	for i := range slots {
		i := i
		slots[i].Open = func(*pipeline.Plan) (pipeline.Backend, error) {
			opened[i].Add(1)
			return &fakeBackend{}, nil
		}
	}
	hits, rep, err := runExec(t, &Executor{Slots: slots}, 2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 2)
	for i := range opened {
		want := int64(0)
		if i < 2 {
			want = 1
		}
		if got := opened[i].Load(); got != want {
			t.Errorf("slot %d opened %d times, want %d", i, got, want)
		}
	}
	if len(rep.Slots) != 2 || rep.Slots[1].Name != "sched/worker1" {
		t.Errorf("report rows = %+v, want the two slots that ran", rep.Slots)
	}
}

func TestExecutorTransientRetries(t *testing.T) {
	// The first two Find calls fail transiently; the policy budget covers
	// them, so the run stays clean apart from the retry count.
	be := &fakeBackend{failFind: func(start, call int) error {
		if call < 2 {
			return fault.Errorf(fault.SiteCLEnqueue, fault.Transient, "flaky enqueue")
		}
		return nil
	}}
	x := &Executor{
		Slots:  fleet(be),
		Policy: &pipeline.Resilience{MaxRetries: 3, BackoffBase: time.Microsecond, BackoffMax: time.Microsecond},
	}
	hits, rep, err := runExec(t, x, 6)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 6)
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
	var once sync.Once
	badStaged := make(chan struct{})
	bad := &fakeBackend{
		failFind:  fatalAlways,
		stageHook: func() { once.Do(func() { close(badStaged) }) },
	}
	good := &fakeBackend{stageHook: func() { <-badStaged }}
	x := &Executor{
		Slots:  fleet(bad, good),
		Policy: &pipeline.Resilience{MaxRetries: -1},
	}
	hits, rep, err := runExec(t, x, 10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 10)
	if rep.Evictions != 1 || !rep.Slots[0].Evicted {
		t.Fatalf("evictions = %d, dev0 evicted = %v; want 1/true", rep.Evictions, rep.Slots[0].Evicted)
	}
	if rep.Slots[1].Evicted {
		t.Error("survivor marked evicted")
	}
	if rep.Slots[1].Chunks != 10 {
		t.Errorf("survivor settled %d chunks, want all 10", rep.Slots[1].Chunks)
	}
	if rep.Failovers != 0 {
		t.Errorf("failovers = %d, want 0 (the survivor absorbed the chunk)", rep.Failovers)
	}
	if !strings.Contains(rep.Slots[0].EvictErr, "injected fatal") {
		t.Errorf("eviction cause %q does not carry the fault", rep.Slots[0].EvictErr)
	}
}

func TestExecutorAllEvictedFallsBack(t *testing.T) {
	// Both slots die on every chunk: the first to exhaust a chunk is
	// evicted, the last live slot is not — it fails every chunk over to the
	// policy's fallback, one at a time, and keeps serving the queue.
	fb := &fakeBackend{}
	b0, b1 := &fakeBackend{failFind: fatalAlways}, &fakeBackend{failFind: fatalAlways}
	x := &Executor{
		Slots: fleet(b0, b1),
		Policy: &pipeline.Resilience{
			MaxRetries: -1,
			Fallback:   func(*pipeline.Plan) (pipeline.Backend, error) { return fb, nil },
		},
	}
	hits, rep, err := runExec(t, x, 8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 8)
	if rep.Evictions != 1 || rep.Slots[0].Evicted == rep.Slots[1].Evicted {
		t.Errorf("evictions = %d (%+v), want all but the last live slot", rep.Evictions, rep.Slots)
	}
	if !rep.FallbackUsed || rep.Failovers != 8 || fb.finds != 8 {
		t.Errorf("fallback used=%v failovers=%d finds=%d, want one failover per chunk (8)", rep.FallbackUsed, rep.Failovers, fb.finds)
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
	be := &fakeBackend{failFind: func(start, call int) error {
		if start == 24 {
			return fatalAlways(start, call)
		}
		return nil
	}}
	x := &Executor{
		Slots: fleet(be),
		Policy: &pipeline.Resilience{
			MaxRetries: -1,
			Fallback:   func(*pipeline.Plan) (pipeline.Backend, error) { return fb, nil },
		},
	}
	hits, rep, err := runExec(t, x, 6)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 6)
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
		Slots:  fleet(&fakeBackend{failFind: fatalAlways}),
		Policy: &pipeline.Resilience{MaxRetries: -1},
	}
	hits, rep, err := runExec(t, x, 5)
	var pe *pipeline.PartialError
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
	var once sync.Once
	hungStaged := make(chan struct{})
	hung := &fakeBackend{
		hangFind:  true,
		stageHook: func() { once.Do(func() { close(hungStaged) }) },
	}
	good := &fakeBackend{stageHook: func() { <-hungStaged }}
	x := &Executor{
		Slots:  fleet(hung, good),
		Policy: &pipeline.Resilience{MaxRetries: -1, Watchdog: 5 * time.Millisecond},
	}
	hits, rep, err := runExec(t, x, 8)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 8)
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
	var once sync.Once
	badStaged := make(chan struct{})
	bad := &fakeBackend{
		failFind:  fatalAlways,
		stageHook: func() { once.Do(func() { close(badStaged) }) },
	}
	x := &Executor{Slots: fleet(bad, &fakeBackend{stageHook: func() { <-badStaged }})}
	_, rep, err := runExec(t, x, 8)
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
	good := &fakeBackend{}
	devs := []Slot{
		{Name: "broken", Open: func(*pipeline.Plan) (pipeline.Backend, error) {
			return nil, errors.New("no such device")
		}},
		{Name: "ok", Open: func(*pipeline.Plan) (pipeline.Backend, error) { return good, nil }},
	}
	x := &Executor{Slots: devs, Policy: &pipeline.Resilience{MaxRetries: -1}}
	hits, rep, err := runExec(t, x, 10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantOrdered(t, hits, 10)
	if rep.Evictions != 1 || !rep.Slots[0].Evicted {
		t.Errorf("open failure did not evict: evictions=%d", rep.Evictions)
	}
	if rep.Slots[1].Chunks != 10 {
		t.Errorf("survivor settled %d chunks, want 10 (got: %+v)", rep.Slots[1].Chunks, rep.Slots)
	}
	// The last live slot has nothing to serve the queue with: the run fails.
	x = &Executor{Slots: devs[:1], Policy: x.Policy}
	if _, _, err := runExec(t, x, 10); err == nil || !strings.Contains(err.Error(), "no such device") {
		t.Errorf("run over a fleet that cannot open: %v, want the open error", err)
	}
}

func TestExecutorNoDevices(t *testing.T) {
	x := &Executor{}
	plan, asm := testPlan(t, 1)
	err := x.execute(context.Background(), plan, asm, func(pipeline.Hit) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no slots") {
		t.Fatalf("run: %v, want no-slots error", err)
	}
}

func TestExecutorEmitError(t *testing.T) {
	x := &Executor{Slots: fleet(&fakeBackend{})}
	plan, asm := testPlan(t, 6)
	sentinel := errors.New("sink full")
	n := 0
	err := x.execute(context.Background(), plan, asm, func(pipeline.Hit) error {
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
	ctx, cancel := context.WithCancel(context.Background())
	slow := &fakeBackend{delay: 5 * time.Millisecond}
	x := &Executor{Slots: fleet(slow)}
	plan, asm := testPlan(t, 10)
	done := make(chan error, 1)
	go func() {
		done <- x.execute(ctx, plan, asm, func(pipeline.Hit) error { return nil })
	}()
	time.Sleep(2 * time.Millisecond)
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
