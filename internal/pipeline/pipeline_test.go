// The single-backend contract, pinned through the one executor
// (internal/sched) as a one-slot fleet over a fake backend: ordered emit,
// abort paths, handle accounting, and the recovery rule as a single engine
// sees it (retry, overflow relaunch, per-chunk failover, quarantine). The
// fleet side — several slots, eviction — is pinned in internal/sched.
package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	. "casoffinder/internal/pipeline"
	"casoffinder/internal/sched"
)

func testAsm(seqLens ...int) *genome.Assembly {
	asm := &genome.Assembly{Name: "t"}
	for i, n := range seqLens {
		asm.Sequences = append(asm.Sequences, &genome.Sequence{
			Name: fmt.Sprintf("seq%d", i),
			Data: []byte(strings.Repeat("A", n)),
		})
	}
	return asm
}

func testReq() *Request {
	return &Request{
		Pattern:    "NNNGG",
		Queries:    []Query{{Guide: "ACGNN", MaxMismatches: 1}},
		ChunkBytes: 32,
	}
}

func chunkKey(ch *genome.Chunk) string { return fmt.Sprintf("%s:%d", ch.SeqName, ch.Start) }

// fakeBackend fabricates one hit per chunk and accounts for every handle so
// tests can assert that nothing staged is ever leaked: at any quiescent
// point drained + released + liveAtClose must equal staged. It is safe to
// share between slots: a handle one slot's Close swept while another slot
// was still scanning it is counted once, at close. Any other handle is
// counted on every Drain and Release, so a double settle breaks the equation.
type fakeBackend struct {
	mu          sync.Mutex
	live        map[*genome.Chunk]struct{}
	swept       map[*genome.Chunk]struct{} // counted in liveAtClose by another slot's Close
	stageOrder  []string
	stageCalls  int
	staged      int
	drained     int
	released    int
	closed      int
	liveAtClose int
	attempts    map[string]int

	stageErrAt int // Stage call that fails; -1 = never
	// failFind scripts Find: it receives the phase context, the chunk key
	// and the 0-based attempt number for that chunk on this backend.
	failFind func(ctx context.Context, key string, attempt int) error
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{live: map[*genome.Chunk]struct{}{}, swept: map[*genome.Chunk]struct{}{}, attempts: map[string]int{}, stageErrAt: -1}
}

func (b *fakeBackend) Stage(ctx context.Context, ch *genome.Chunk) (Staged, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stageCalls++
	if b.stageCalls-1 == b.stageErrAt {
		return nil, errors.New("stage boom")
	}
	st := *ch // a handle per attempt, so a retried chunk is a fresh one
	b.staged++
	b.live[&st] = struct{}{}
	b.stageOrder = append(b.stageOrder, chunkKey(ch))
	return &st, nil
}

func (b *fakeBackend) Find(ctx context.Context, st Staged) (int, error) {
	key := chunkKey(st.(*genome.Chunk))
	b.mu.Lock()
	attempt := b.attempts[key]
	b.attempts[key]++
	b.mu.Unlock()
	if b.failFind != nil {
		if err := b.failFind(ctx, key, attempt); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

func (b *fakeBackend) Compare(ctx context.Context, st Staged, qi int) error { return nil }

func (b *fakeBackend) Drain(ctx context.Context, st Staged, r *SiteRenderer) ([]Hit, error) {
	ch := st.(*genome.Chunk)
	b.mu.Lock()
	if !b.settleSwept(ch) {
		b.drained++
	}
	b.mu.Unlock()
	return []Hit{{SeqName: ch.SeqName, Pos: ch.Start, Dir: '+', Site: "AAA"}}, nil
}

// settleSwept takes a handle out of the live set and reports whether a
// Close had already swept (and counted) it. b.mu is held.
func (b *fakeBackend) settleSwept(ch *genome.Chunk) bool {
	_, ok := b.swept[ch]
	delete(b.swept, ch)
	delete(b.live, ch)
	return ok
}

func (b *fakeBackend) Close() error {
	b.mu.Lock()
	b.closed++
	b.liveAtClose += len(b.live)
	for ch := range b.live {
		b.swept[ch] = struct{}{}
	}
	clear(b.live)
	b.mu.Unlock()
	return nil
}

func (b *fakeBackend) attemptsFor(key string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempts[key]
}

// checkAccounting asserts the backend was closed once per slot that opened
// it and no staged handle escaped Drain, Release and Close.
func checkAccounting(t *testing.T, b *fakeBackend, slots int) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed != slots {
		t.Errorf("Close called %d times, want %d", b.closed, slots)
	}
	if b.drained+b.released+b.liveAtClose != b.staged {
		t.Errorf("handle leak: staged %d, drained %d, released %d, at close %d",
			b.staged, b.drained, b.released, b.liveAtClose)
	}
}

// releasingBackend adds the Releaser capability.
type releasingBackend struct{ *fakeBackend }

func (b releasingBackend) Release(st Staged) {
	b.mu.Lock()
	if !b.settleSwept(st.(*genome.Chunk)) {
		b.released++
	}
	b.mu.Unlock()
}

// executor builds a fleet of `slots` slots that all open be, with an
// optional policy whose fallback (when non-nil) is fb.
func executor(be Backend, slots int, res *Resilience, fb Backend) *sched.Executor {
	x := &sched.Executor{Slots: make([]sched.Slot, slots), Policy: res}
	for i := range x.Slots {
		x.Slots[i].Open = func(*Plan) (Backend, error) { return be, nil }
	}
	if fb != nil {
		res.Fallback = func(*Plan) (Backend, error) { return fb, nil }
	}
	return x
}

// stream runs the test request and returns the emitted hits as "seq:pos".
func stream(ctx context.Context, x *sched.Executor, asm *genome.Assembly, req *Request) ([]string, error) {
	var got []string
	err := x.Stream(ctx, asm, req, func(h Hit) error {
		got = append(got, fmt.Sprintf("%s:%d", h.SeqName, h.Pos))
		return nil
	})
	return got, err
}

// golden is the clean stream of testReq over asm.
func golden(t *testing.T, asm *genome.Assembly) []string {
	t.Helper()
	want, err := stream(context.Background(), executor(newFakeBackend(), 1, nil, nil), asm, testReq())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 {
		t.Fatalf("golden stream too small: %v", want)
	}
	return want
}

func sameStream(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stream diverges:\n got %v\nwant %v", got, want)
	}
}

// TestStreamEmitsInChunkOrder: with several slots racing, hits must still
// arrive grouped by chunk in plan order.
func TestStreamEmitsInChunkOrder(t *testing.T) {
	b := newFakeBackend()
	// Skew per-chunk scan latency so completion order scrambles.
	var calls atomic.Int64
	b.failFind = func(context.Context, string, int) error {
		time.Sleep(time.Duration(calls.Add(1)%5*300) * time.Microsecond)
		return nil
	}
	asm := testAsm(500, 200)
	got, err := stream(context.Background(), executor(b, 4, nil, nil), asm, testReq())
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, got, golden(t, asm))
	checkAccounting(t, b, 4)
}

// TestEmitErrorAborts: an emit error must stop the run, surface as the
// stream error, and leave no staged handle unreleased.
func TestEmitErrorAborts(t *testing.T) {
	b := newFakeBackend()
	b.failFind = func(context.Context, string, int) error {
		time.Sleep(time.Millisecond)
		return nil
	}
	asm := testAsm(2000)
	sentinel := errors.New("emit failed")
	err := executor(b, 1, nil, nil).Stream(context.Background(), asm, testReq(), func(Hit) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if total := len(golden(t, asm)); b.staged >= total {
		t.Errorf("staged all %d chunks despite abort", total)
	}
	checkAccounting(t, b, 1)
}

// TestResilientEmitErrorAborts: an emit error is not a chunk failure — it
// aborts the run under a policy too.
func TestResilientEmitErrorAborts(t *testing.T) {
	sentinel := errors.New("emit failed")
	err := executor(newFakeBackend(), 1, &Resilience{}, nil).Stream(context.Background(), testAsm(500), testReq(),
		func(Hit) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

// TestStageErrorReleasesHandles: without a policy a staging failure mid-plan
// fails the run, and the handles staged before it are drained or — when the
// abort catches the other slot mid-scan — swept by Close.
func TestStageErrorReleasesHandles(t *testing.T) {
	b := newFakeBackend()
	b.stageErrAt = 3
	_, err := stream(context.Background(), executor(b, 2, nil, nil), testAsm(2000), testReq())
	if err == nil || !strings.Contains(err.Error(), "stage boom") {
		t.Fatalf("err = %v, want the stage error", err)
	}
	checkAccounting(t, b, 2)
}

// TestCancellation: cancelling the context mid-scan returns ctx.Err() and
// releases everything.
func TestCancellation(t *testing.T) {
	b := newFakeBackend()
	ctx, cancel := context.WithCancel(context.Background())
	b.failFind = func(ctx context.Context, _ string, _ int) error {
		cancel()
		<-ctx.Done()
		return ctx.Err()
	}
	_, err := stream(ctx, executor(b, 1, nil, nil), testAsm(2000), testReq())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b.liveAtClose != 1 {
		t.Errorf("Close swept %d handles, want the one abandoned mid-scan", b.liveAtClose)
	}
	checkAccounting(t, b, 1)
}

// TestCompileErrors: invalid requests and impossible chunk budgets fail
// before any backend is opened.
func TestCompileErrors(t *testing.T) {
	opened := 0
	x := &sched.Executor{Slots: []sched.Slot{{Open: func(*Plan) (Backend, error) {
		opened++
		return newFakeBackend(), nil
	}}}}
	for _, req := range []*Request{
		{Pattern: "", Queries: []Query{{Guide: "NN"}}},
		{Pattern: "NNNGG", Queries: []Query{{Guide: "ACGNN"}}, ChunkBytes: 3},
	} {
		if _, err := stream(context.Background(), x, testAsm(100), req); err == nil {
			t.Errorf("request %+v accepted", req)
		} else if !strings.HasPrefix(err.Error(), "search: ") {
			t.Errorf("error %q lacks the search: prefix", err)
		}
	}
	if opened != 0 {
		t.Errorf("backend opened %d times for invalid requests", opened)
	}
}

// batchBackend layers the BatchComparer capability over fakeBackend,
// counting the fused calls and any per-query Compare call, which Attempt
// must never make once the capability is present.
type batchBackend struct {
	*fakeBackend
	batchCalls, singleCalls int
}

func (b *batchBackend) Compare(ctx context.Context, st Staged, qi int) error {
	b.singleCalls++
	return nil
}

func (b *batchBackend) CompareAll(ctx context.Context, st Staged) error {
	b.batchCalls++
	return nil
}

// TestBatchComparerPreferred: a backend advertising CompareAll gets exactly
// one fused compare per chunk, even with several queries, and the per-query
// entry point is never used.
func TestBatchComparerPreferred(t *testing.T) {
	b := &batchBackend{fakeBackend: newFakeBackend()}
	req := testReq()
	req.Queries = append(req.Queries, Query{Guide: "TTANN", MaxMismatches: 0})
	if _, err := stream(context.Background(), executor(b, 1, nil, nil), testAsm(500), req); err != nil {
		t.Fatal(err)
	}
	if b.staged == 0 || b.batchCalls != b.staged || b.singleCalls != 0 {
		t.Errorf("%d chunks: %d CompareAll and %d Compare calls, want one fused call per chunk and no other",
			b.staged, b.batchCalls, b.singleCalls)
	}
	checkAccounting(t, b.fakeBackend, 1)
}

// recoveryCase scripts the primary's Find for chunk seq0:28 of a one-slot
// fleet and pins the report and how often the primary saw the chunk. The
// stream must be the golden one whatever happens: the fallback re-verifies
// what the primary could not.
type recoveryCase struct {
	res      Resilience
	fail     func(ctx context.Context, attempt int) error
	fallback bool
	want     Report // Chunks and FallbackUsed are derived
	attempts int
}

func (tc recoveryCase) run(t *testing.T) {
	t.Helper()
	asm := testAsm(500)
	want := golden(t, asm)
	b := releasingBackend{newFakeBackend()}
	b.failFind = func(ctx context.Context, key string, attempt int) error {
		if key == "seq0:28" {
			return tc.fail(ctx, attempt)
		}
		return nil
	}
	var fb Backend
	if tc.fallback {
		fb = newFakeBackend()
	}
	var rep *Report
	tc.res.OnReport = func(r *Report) { rep = r }
	got, err := stream(context.Background(), executor(b, 1, &tc.res, fb), asm, testReq())
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, got, want)
	tc.want.Chunks, tc.want.FallbackUsed = len(want), tc.fallback
	if fmt.Sprint(*rep) != fmt.Sprint(tc.want) {
		t.Errorf("report = %+v, want %+v", *rep, tc.want)
	}
	if !rep.Degraded() {
		t.Error("run not marked degraded")
	}
	if n := b.attemptsFor("seq0:28"); n != tc.attempts {
		t.Errorf("primary attempts = %d, want %d", n, tc.attempts)
	}
	checkAccounting(t, b.fakeBackend, 1)
}

var (
	errTransient = fault.Errorf(fault.SiteCLEnqueue, fault.Transient, "scripted transient")
	errOverflow  = fault.Errorf(fault.SiteArena, fault.Overflow, "scripted arena exhaustion")
)

// TestResilientRetryRecovers: a transient failure on a chunk's first attempt
// is retried on the primary, without touching the fallback.
func TestResilientRetryRecovers(t *testing.T) {
	recoveryCase{
		fail: func(_ context.Context, attempt int) error {
			if attempt == 0 {
				return errTransient
			}
			return nil
		},
		want: Report{Retries: 1}, attempts: 2,
	}.run(t)
}

// TestResilientFailover: a chunk that exhausts its transient retries on the
// primary is re-staged on the fallback and its hits slot back into the
// ordered stream; the slot goes on serving the chunks after it.
func TestResilientFailover(t *testing.T) {
	recoveryCase{
		res:  Resilience{MaxRetries: 2},
		fail: func(context.Context, int) error { return errTransient }, fallback: true,
		want: Report{Retries: 2, Failovers: 1}, attempts: 3,
	}.run(t)
}

// TestOverflowRelaunches: an overflow-classed failure relaunches on the
// primary under its own budget — no backoff, no failover, and no transient
// retry consumed (there are none to consume here).
func TestOverflowRelaunches(t *testing.T) {
	recoveryCase{
		res: Resilience{MaxRetries: -1},
		fail: func(_ context.Context, attempt int) error {
			if attempt < DefaultMaxOverflowRelaunches {
				return errOverflow
			}
			return nil
		},
		want: Report{OverflowRelaunches: DefaultMaxOverflowRelaunches}, attempts: DefaultMaxOverflowRelaunches + 1,
	}.run(t)
}

// TestOverflowBudgetExhausted: overflow past the relaunch budget fails over
// like any other persistent failure, so a livelocked allocator cannot wedge
// a chunk.
func TestOverflowBudgetExhausted(t *testing.T) {
	recoveryCase{
		res:  Resilience{MaxRetries: -1},
		fail: func(context.Context, int) error { return errOverflow }, fallback: true,
		want:     Report{OverflowRelaunches: DefaultMaxOverflowRelaunches, Failovers: 1},
		attempts: DefaultMaxOverflowRelaunches + 1,
	}.run(t)
}

// TestCorruptionSkipsRetry: a corruption-classed failure is never retried on
// the backend that produced it — it goes straight to the fallback.
func TestCorruptionSkipsRetry(t *testing.T) {
	recoveryCase{
		res: Resilience{MaxRetries: 5},
		fail: func(context.Context, int) error {
			return fault.Errorf(fault.SiteReadback, fault.Corruption, "scripted corruption")
		}, fallback: true,
		want: Report{Failovers: 1}, attempts: 1,
	}.run(t)
}

// TestWatchdogReapsHang: a scan phase that parks on its context — the
// injected hung kernel — is cancelled by the watchdog deadline, classified
// transient and recovered by the retry, well inside the test timeout.
func TestWatchdogReapsHang(t *testing.T) {
	start := time.Now()
	recoveryCase{
		res: Resilience{Watchdog: 25 * time.Millisecond},
		fail: func(ctx context.Context, attempt int) error {
			if attempt == 0 {
				<-ctx.Done() // wedged kernel: only the watchdog can reap it
				return ctx.Err()
			}
			return nil
		},
		want: Report{WatchdogKills: 1, Retries: 1}, attempts: 2,
	}.run(t)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v; the watchdog did not reap the hang promptly", elapsed)
	}
}

// quarantineRun fails chunk seq0:28 fatally with no fallback configured.
func quarantineRun(t *testing.T) (got, want []string, rep *Report, err error) {
	t.Helper()
	asm := testAsm(500)
	want = golden(t, asm)
	b := releasingBackend{newFakeBackend()}
	b.failFind = func(_ context.Context, key string, _ int) error {
		if key == "seq0:28" {
			return fault.Errorf(fault.SiteCLDeviceLost, fault.Fatal, "scripted fatal")
		}
		return nil
	}
	res := &Resilience{OnReport: func(r *Report) { rep = r }}
	got, err = stream(context.Background(), executor(b, 1, res, nil), asm, testReq())
	checkAccounting(t, b.fakeBackend, 1)
	return got, want, rep, err
}

// TestResilientQuarantine: with no fallback, a persistently failing chunk is
// quarantined and the run returns a structured PartialError naming the
// missing region.
func TestResilientQuarantine(t *testing.T) {
	_, _, rep, err := quarantineRun(t)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(pe.Report.Quarantined) != 1 || pe.Report != rep || !rep.Degraded() {
		t.Fatalf("report = %+v (OnReport saw %+v), want one quarantined chunk", pe.Report, rep)
	}
	q := pe.Report.Quarantined[0]
	if q.Index != 1 || q.SeqName != "seq0" || q.Start != 28 || q.Attempts != 1 || fault.ClassOf(q.Err) != fault.Fatal {
		t.Errorf("quarantine record = %+v", q)
	}
}

// TestCollectKeepsPartialHits: every hit outside the quarantined chunk is
// emitted, in order, alongside the PartialError.
func TestCollectKeepsPartialHits(t *testing.T) {
	got, want, _, _ := quarantineRun(t)
	var kept []string
	for _, h := range want {
		if h != "seq0:28" {
			kept = append(kept, h)
		}
	}
	sameStream(t, got, kept)
}

// TestBackoffDeterministic: the retry schedule is a pure function of
// (seed, chunk, attempt), grows exponentially, and respects the cap.
func TestBackoffDeterministic(t *testing.T) {
	res := &Resilience{Seed: 42, BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond}
	other := &Resilience{Seed: 43, BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond}
	same := true
	for chunk := 0; chunk < 4; chunk++ {
		for attempt := 1; attempt <= 6; attempt++ {
			d := res.RetryBackoff(chunk, attempt)
			if d != res.RetryBackoff(chunk, attempt) {
				t.Fatalf("backoff(%d,%d) nondeterministic", chunk, attempt)
			}
			if d > res.BackoffMax || d < res.BackoffBase/2 {
				t.Errorf("backoff(%d,%d) = %v outside [base/2, max]", chunk, attempt, d)
			}
			same = same && d == other.RetryBackoff(chunk, attempt)
		}
	}
	if same {
		t.Error("different seeds produced an identical backoff schedule")
	}
}
