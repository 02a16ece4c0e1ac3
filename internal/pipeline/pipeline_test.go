// The executor over one fake backend. This file holds the fake and what a
// single engine sees: ordered emit, abort paths, handle accounting, and the
// recovery rule on one slot (retry, per-chunk failover, quarantine).
// executor_test.go pins several slots: the pull order and reorder window,
// per-slot failover.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
)

// testReq is an all-N request: every position is a site, and each chunk
// holds 12 of them (16 bytes less the pattern's 4-base overlap).
func testReq() *Request {
	return &Request{
		Pattern:    "NNNNN",
		Queries:    []Query{{Guide: "NNNNN", MaxMismatches: 5}},
		ChunkBytes: 16,
	}
}

// testAsm builds one sequence per length.
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

// chunked is one sequence that testReq cuts into exactly n chunks.
func chunked(n int) *genome.Assembly { return testAsm(12*n + 4) }

func chunkKey(ch *genome.Chunk) string { return fmt.Sprintf("%s:%d", ch.SeqName, ch.Start) }

// golden is the clean stream of testReq over asm: the fake's one hit per
// chunk, in plan order.
func golden(t *testing.T, asm *genome.Assembly) []string {
	t.Helper()
	plan, err := Compile(testReq())
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := plan.Chunker.Plan(asm)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ch := range chunks {
		want = append(want, chunkKey(ch))
	}
	return want
}

// fakeBackend fabricates one hit per chunk, at its start, so the stream
// depends only on plan order. It accounts for every handle so tests can
// assert that nothing staged is ever leaked: at any quiescent point drained
// + released + liveAtClose must equal staged. It is safe to share between
// slots: a handle one slot's Close swept while another slot was still
// scanning it is counted once, at close. Any other handle is counted on
// every Drain and Release, so a double settle breaks the equation.
type fakeBackend struct {
	// stage, when set, runs at the top of every Stage call with the call's
	// 0-based number; an error fails the call.
	stage func(call int) error
	// find, when set, scripts Find: it gets the phase context, the chunk and
	// the 0-based number of this backend's attempts at that chunk.
	find func(ctx context.Context, ch *genome.Chunk, attempt int) error

	mu          sync.Mutex
	live, swept map[*genome.Chunk]bool // swept: counted at another slot's Close
	attempts    map[string]int
	stageCalls  int
	staged      int
	finds       int
	drained     int
	released    int
	closed      int
	liveAtClose int
}

func (b *fakeBackend) Stage(ctx context.Context, ch *genome.Chunk) (Staged, error) {
	b.mu.Lock()
	call := b.stageCalls
	b.stageCalls++
	b.mu.Unlock()
	if b.stage != nil {
		if err := b.stage(call); err != nil {
			return nil, err
		}
	}
	st := *ch // a handle per attempt, so a retried chunk is a fresh one
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.live == nil {
		b.live, b.swept = map[*genome.Chunk]bool{}, map[*genome.Chunk]bool{}
	}
	b.staged++
	b.live[&st] = true
	return &st, nil
}

func (b *fakeBackend) Find(ctx context.Context, st Staged) error {
	ch := st.(*genome.Chunk)
	b.mu.Lock()
	if b.attempts == nil {
		b.attempts = map[string]int{}
	}
	attempt := b.attempts[chunkKey(ch)]
	b.attempts[chunkKey(ch)]++
	b.finds++
	b.mu.Unlock()
	if b.find != nil {
		return b.find(ctx, ch, attempt)
	}
	return nil
}

func (b *fakeBackend) Compare(ctx context.Context, st Staged) error { return nil }

func (b *fakeBackend) Drain(ctx context.Context, st Staged, r *SiteRenderer) ([]Hit, error) {
	ch := st.(*genome.Chunk)
	b.settle(ch, &b.drained)
	return []Hit{{SeqName: ch.SeqName, Pos: ch.Start, Dir: '+', Site: "AAA"}}, nil
}

func (b *fakeBackend) Release(st Staged) { b.settle(st.(*genome.Chunk), &b.released) }

// settle takes a handle out of the live set and counts it in n, unless a
// Close already swept (and counted) it.
func (b *fakeBackend) settle(ch *genome.Chunk, n *int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.swept[ch] {
		*n++
	}
	delete(b.swept, ch)
	delete(b.live, ch)
}

func (b *fakeBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed++
	b.liveAtClose += len(b.live)
	for ch := range b.live {
		b.swept[ch] = true
	}
	clear(b.live)
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

// Find scripts.

// hang is a wedged kernel: only the phase context can end it.
func hang(ctx context.Context, _ *genome.Chunk, _ int) error {
	<-ctx.Done()
	return ctx.Err()
}

// delay is a slow device.
func delay(d time.Duration) func(context.Context, *genome.Chunk, int) error {
	return func(ctx context.Context, _ *genome.Chunk, _ int) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// fatal fails every Find with a fatal fault.
func fatal(_ context.Context, ch *genome.Chunk, _ int) error {
	return fault.Errorf(fault.SiteLaunch, fault.Fatal, "injected fatal at %d", ch.Start)
}

var errTransient = fault.Errorf(fault.SiteCLEnqueue, fault.Transient, "scripted transient")

// opener is a slot's (or a policy's fallback) opener that returns be.
func opener(be Backend) func(*Plan) (Backend, error) {
	return func(*Plan) (Backend, error) { return be, nil }
}

// slotsFor is one slot per backend; passing one backend several times
// shares it between slots.
func slotsFor(bes ...Backend) []Slot {
	slots := make([]Slot, len(bes))
	for i, be := range bes {
		slots[i] = Slot{Open: opener(be)}
	}
	return slots
}

// stream runs testReq over asm on x and returns the emitted hits as
// "seq:pos", the report — OnReport must fire exactly once — and the error.
func stream(ctx context.Context, t *testing.T, x *Executor, asm *genome.Assembly) ([]string, *Report, error) {
	t.Helper()
	var rep *Report
	x.OnReport = func(r *Report) {
		if rep != nil {
			t.Error("OnReport called twice")
		}
		rep = r
	}
	var got []string
	err := x.Stream(ctx, asm, testReq(), func(h Hit) error {
		got = append(got, fmt.Sprintf("%s:%d", h.SeqName, h.Pos))
		return nil
	})
	if rep == nil {
		t.Fatal("OnReport never called")
	}
	return got, rep, err
}

func sameStream(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stream diverges:\n got %v\nwant %v", got, want)
	}
}

// TestStreamEmitsInChunkOrder: with several slots racing, hits must still
// arrive grouped by chunk in plan order. Each even chunk's Find returns only
// after the odd chunk behind it has finished, so chunks complete out of
// order whatever the interleaving.
func TestStreamEmitsInChunkOrder(t *testing.T) {
	asm := testAsm(500, 200)
	want := golden(t, asm)
	done := make(map[string]chan struct{}, len(want))
	for _, key := range want {
		done[key] = make(chan struct{})
	}
	behind := make(map[string]chan struct{}) // even chunk → its odd successor's done
	for i := 0; i+1 < len(want); i += 2 {
		behind[want[i]] = done[want[i+1]]
	}
	b := &fakeBackend{find: func(_ context.Context, ch *genome.Chunk, _ int) error {
		if wait, ok := behind[chunkKey(ch)]; ok {
			<-wait
		}
		close(done[chunkKey(ch)])
		return nil
	}}
	got, _, err := stream(context.Background(), t, &Executor{Slots: slotsFor(b, b, b, b)}, asm)
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, got, want)
	checkAccounting(t, b, 4)
}

// TestEmitErrorAborts: an emit error must stop the run, surface as the
// stream error, and leave no staged handle unreleased. The reorder window
// keeps the slot from staging more than two chunks past the failed emit.
func TestEmitErrorAborts(t *testing.T) {
	b := &fakeBackend{}
	asm := testAsm(2000)
	sentinel := errors.New("emit failed")
	err := (&Executor{Slots: slotsFor(b)}).Stream(context.Background(), asm, testReq(), func(Hit) error { return sentinel })
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
	x := &Executor{Slots: slotsFor(&fakeBackend{}), Policy: &Resilience{}}
	err := x.Stream(context.Background(), testAsm(500), testReq(), func(Hit) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

// TestStageErrorReleasesHandles: without a policy a staging failure mid-plan
// fails the run, and the handles staged before it are drained or — when the
// abort catches the other slot mid-scan — swept by Close.
func TestStageErrorReleasesHandles(t *testing.T) {
	b := &fakeBackend{stage: func(call int) error {
		if call == 3 {
			return errors.New("stage boom")
		}
		return nil
	}}
	_, _, err := stream(context.Background(), t, &Executor{Slots: slotsFor(b, b)}, testAsm(2000))
	if err == nil || !strings.Contains(err.Error(), "stage boom") {
		t.Fatalf("err = %v, want the stage error", err)
	}
	checkAccounting(t, b, 2)
}

// TestCancellation: cancelling the context mid-scan returns ctx.Err() and
// releases everything.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := &fakeBackend{find: func(ctx context.Context, ch *genome.Chunk, attempt int) error {
		cancel()
		return hang(ctx, ch, attempt)
	}}
	_, _, err := stream(ctx, t, &Executor{Slots: slotsFor(b)}, testAsm(2000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b.released != 1 || b.liveAtClose != 0 {
		t.Errorf("released %d and Close swept %d handles, want the one abandoned mid-scan released",
			b.released, b.liveAtClose)
	}
	checkAccounting(t, b, 1)
}

// TestCompileErrors: invalid requests and impossible chunk budgets fail
// before any backend is opened.
func TestCompileErrors(t *testing.T) {
	opened := 0
	x := &Executor{Slots: []Slot{{Open: func(*Plan) (Backend, error) {
		opened++
		return &fakeBackend{}, nil
	}}}}
	for _, req := range []*Request{
		{Pattern: "", Queries: []Query{{Guide: "NN"}}},
		{Pattern: "NNNGG", Queries: []Query{{Guide: "ACGNN"}}, ChunkBytes: 3},
	} {
		if err := x.Stream(context.Background(), testAsm(100), req, func(Hit) error { return nil }); err == nil {
			t.Errorf("request %+v accepted", req)
		} else if !strings.HasPrefix(err.Error(), "search: ") {
			t.Errorf("error %q lacks the search: prefix", err)
		}
	}
	if opened != 0 {
		t.Errorf("backend opened %d times for invalid requests", opened)
	}
}

// recoveryCase scripts the primary's Find for chunk seq0:12 of a one-slot
// run and pins the report and how often the primary saw the chunk. The
// stream must be the golden one whatever happens: the fallback re-verifies
// what the primary could not.
type recoveryCase struct {
	res      Resilience
	fail     func(ctx context.Context, attempt int) error
	fallback bool
	want     Report // Chunks is derived
	attempts int
}

func (tc recoveryCase) run(t *testing.T) {
	t.Helper()
	asm := testAsm(500)
	want := golden(t, asm)
	b := &fakeBackend{find: func(ctx context.Context, ch *genome.Chunk, attempt int) error {
		if chunkKey(ch) == "seq0:12" {
			return tc.fail(ctx, attempt)
		}
		return nil
	}}
	if tc.fallback {
		tc.res.Fallback = opener(&fakeBackend{})
	}
	got, rep, err := stream(context.Background(), t, &Executor{Slots: slotsFor(b), Policy: &tc.res}, asm)
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, got, want)
	tc.want.Chunks = len(want)
	if fmt.Sprint(*rep) != fmt.Sprint(tc.want) {
		t.Errorf("report = %+v, want %+v", *rep, tc.want)
	}
	if !rep.Degraded() {
		t.Error("run not marked degraded")
	}
	if n := b.attemptsFor("seq0:12"); n != tc.attempts {
		t.Errorf("primary attempts = %d, want %d", n, tc.attempts)
	}
	checkAccounting(t, b, 1)
}

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
				return hang(ctx, nil, attempt)
			}
			return nil
		},
		want: Report{WatchdogKills: 1, Retries: 1}, attempts: 2,
	}.run(t)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v; the watchdog did not reap the hang promptly", elapsed)
	}
}

// quarantineRun fails chunk seq0:12 fatally with no fallback configured.
// The policy's OnReport must see the executor's report.
func quarantineRun(t *testing.T) (got, want []string, rep *Report, err error) {
	t.Helper()
	asm := testAsm(500)
	want = golden(t, asm)
	b := &fakeBackend{find: func(_ context.Context, ch *genome.Chunk, _ int) error {
		if chunkKey(ch) == "seq0:12" {
			return fault.Errorf(fault.SiteCLDeviceLost, fault.Fatal, "scripted fatal")
		}
		return nil
	}}
	var policyRep *Report
	res := &Resilience{OnReport: func(r *Report) { policyRep = r }}
	got, rep, err = stream(context.Background(), t, &Executor{Slots: slotsFor(b), Policy: res}, asm)
	if policyRep != rep {
		t.Error("the policy's OnReport and the executor's saw different reports")
	}
	checkAccounting(t, b, 1)
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
	if q.Index != 1 || q.SeqName != "seq0" || q.Start != 12 || q.Attempts != 1 || fault.ClassOf(q.Err) != fault.Fatal {
		t.Errorf("quarantine record = %+v", q)
	}
}

// TestCollectKeepsPartialHits: every hit outside the quarantined chunk is
// emitted, in order, alongside the PartialError.
func TestCollectKeepsPartialHits(t *testing.T) {
	got, want, _, _ := quarantineRun(t)
	var kept []string
	for _, h := range want {
		if h != "seq0:12" {
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
			d := res.retryBackoff(chunk, attempt)
			if d != res.retryBackoff(chunk, attempt) {
				t.Fatalf("backoff(%d,%d) nondeterministic", chunk, attempt)
			}
			if d > res.BackoffMax || d < res.BackoffBase/2 {
				t.Errorf("backoff(%d,%d) = %v outside [base/2, max]", chunk, attempt, d)
			}
			same = same && d == other.retryBackoff(chunk, attempt)
		}
	}
	if same {
		t.Error("different seeds produced an identical backoff schedule")
	}
}
