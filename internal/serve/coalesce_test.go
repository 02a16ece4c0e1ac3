package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
)

// testAssembly plants two perfect NGG sites: GATTACAGTA+CGG at chr1:4 and
// ACGTACGTAC+AGG at chr1:21.
func testAssembly() *genome.Assembly {
	seq := "TTTTGATTACAGTACGGTTTTACGTACGTACAGGTTTTTTTTTTTTTT"
	return &genome.Assembly{Name: "test", Sequences: []*genome.Sequence{
		{Name: "chr1", Data: []byte(seq)},
	}}
}

const testPattern = "NNNNNNNNNNNGG"

// memberRequest builds a single-pattern request over the given guides.
func memberRequest(guides ...pipeline.Query) *pipeline.Request {
	return &pipeline.Request{Pattern: testPattern, Queries: guides}
}

// jsonEmit returns an emit function encoding hits exactly as the server
// streams them, against the member's own request.
func jsonEmit(buf *bytes.Buffer, req *pipeline.Request) func(pipeline.Hit) error {
	return func(h pipeline.Hit) error { return search.WriteHitJSON(buf, req, h) }
}

// soloNDJSON runs one member alone on the engine and returns its encoded
// stream: the golden the coalesced stream must match byte for byte.
func soloNDJSON(t *testing.T, eng search.Engine, asm *genome.Assembly, req *pipeline.Request) string {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Stream(context.Background(), asm, req, jsonEmit(&buf, req)); err != nil {
		t.Fatalf("solo stream: %v", err)
	}
	return buf.String()
}

// counter reads one counter of a registry.
func counter(m *obs.Metrics, name string) int64 { return m.Snapshot().Counters[name] }

// coalescer builds a scheduler at default limits over run, whose batches
// are ready window after they open.
func coalescer(window time.Duration, run passFunc, m *obs.Metrics) *scheduler {
	return newScheduler(Limits{}.withDefaults(), window, nil, run, m)
}

// joinReq submits req to s as one member of the "test" genome's batches.
func joinReq(ctx context.Context, s *scheduler, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error, error) {
	m := &member{priority: PriorityNormal, queries: req.Queries, emit: emit}
	return s.Join(ctx, "t", coalKey{genome: "test", pattern: req.Pattern}, m)
}

// cpuPass adapts the CPU engine to a passFunc (no resilience reports).
func cpuPass(asm *genome.Assembly) passFunc {
	eng := &search.CPU{}
	return func(ctx context.Context, _ string, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error) {
		return nil, eng.Stream(ctx, asm, req, emit)
	}
}

// TestCoalescedByteIdentical is the coalescer's core contract: concurrent
// members sharing one pass see exactly the bytes they would have seen
// running alone, and the batch really did collapse to one pass.
func TestCoalescedByteIdentical(t *testing.T) {
	asm := testAssembly()
	cpu := &search.CPU{}
	members := []*pipeline.Request{
		memberRequest(pipeline.Query{Guide: "GATTACAGTANNN", MaxMismatches: 1}),
		memberRequest(pipeline.Query{Guide: "ACGTACGTACNNN", MaxMismatches: 1}),
		memberRequest(pipeline.Query{Guide: "GATTACAGTANNN", MaxMismatches: 0}),
		memberRequest(
			pipeline.Query{Guide: "ACGTACGTACNNN", MaxMismatches: 2},
			pipeline.Query{Guide: "GATTACAGTANNN", MaxMismatches: 2},
		),
	}
	golden := make([]string, len(members))
	for i, req := range members {
		golden[i] = soloNDJSON(t, cpu, asm, req)
		if golden[i] == "" {
			t.Fatalf("member %d found no hits; the equivalence check would be vacuous", i)
		}
	}

	var passes sync.Map // passCount via metrics registry instead
	m := obs.NewMetrics()
	run := cpuPass(asm)
	counted := func(ctx context.Context, g string, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error) {
		passes.Store(req, true)
		return run(ctx, g, req, emit)
	}
	c := coalescer(200*time.Millisecond, counted, m)

	bufs := make([]bytes.Buffer, len(members))
	var wg sync.WaitGroup
	for i, req := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, perr, merr := joinReq(context.Background(), c, req, jsonEmit(&bufs[i], req))
			if perr != nil || merr != nil {
				t.Errorf("member %d: pass err %v, member err %v", i, perr, merr)
			}
			if rep != nil && rep.Degraded() {
				t.Errorf("member %d: unexpected degraded report", i)
			}
		}()
	}
	wg.Wait()

	for i := range members {
		if got := bufs[i].String(); got != golden[i] {
			t.Errorf("member %d coalesced stream differs from solo run:\n%s\nvs\n%s", i, got, golden[i])
		}
	}
	n := 0
	passes.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Errorf("%d passes ran, want 1 (members did not coalesce)", n)
	}
	if got := counter(m, obs.MetricServeCoalesced); got != int64(len(members)) {
		t.Errorf("coalesced counter = %d, want %d", got, len(members))
	}
}

// TestCoalescedDegradedPass seeds a certain device-lost fault under the
// merged pass: the resilient executor fails the batch over to the CPU, every
// member's stream stays byte-identical to a clean solo run, and every member
// sees the shared degraded report — fault attribution covers the whole
// batch, because the missing device served the whole batch.
func TestCoalescedDegradedPass(t *testing.T) {
	asm := testAssembly()
	cpu := &search.CPU{}
	members := []*pipeline.Request{
		memberRequest(pipeline.Query{Guide: "GATTACAGTANNN", MaxMismatches: 1}),
		memberRequest(pipeline.Query{Guide: "ACGTACGTACNNN", MaxMismatches: 1}),
	}
	golden := make([]string, len(members))
	for i, req := range members {
		golden[i] = soloNDJSON(t, cpu, asm, req)
	}

	dev := gpu.New(device.MI100())
	dev.SetFaults(fault.NewInjector(fault.Plan{Seed: 42, Rate: 1, Site: fault.SiteCLDeviceLost}))
	res := &pipeline.Resilience{Seed: 42}
	eng := &search.SimCL{Device: dev, Resilience: res}

	// Mirror Server.runPass: one pass slot, and the report the resilient
	// executor publishes through the sink.
	var slot *pipeline.Report
	res.OnReport = func(rep *pipeline.Report) { slot = rep }
	run := func(ctx context.Context, _ string, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error) {
		slot = nil
		err := eng.Stream(ctx, asm, req, emit)
		return slot, err
	}
	c := newScheduler(Limits{MaxInflight: 1}.withDefaults(), 200*time.Millisecond, nil, run, nil)

	bufs := make([]bytes.Buffer, len(members))
	reps := make([]*pipeline.Report, len(members))
	var wg sync.WaitGroup
	for i, req := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, perr, merr := joinReq(context.Background(), c, req, jsonEmit(&bufs[i], req))
			if perr != nil || merr != nil {
				t.Errorf("member %d: pass err %v, member err %v", i, perr, merr)
			}
			reps[i] = rep
		}()
	}
	wg.Wait()

	for i := range members {
		if got := bufs[i].String(); got != golden[i] {
			t.Errorf("member %d degraded stream differs from clean solo run:\n%s\nvs\n%s", i, got, golden[i])
		}
		if reps[i] == nil || !reps[i].Degraded() {
			t.Errorf("member %d: report %+v, want the shared degraded report", i, reps[i])
		}
	}
	if reps[0] != reps[1] {
		t.Errorf("members saw different reports (%p vs %p); attribution should share the pass's", reps[0], reps[1])
	}
}

// TestCoalesceKeyPartitioning: different patterns must not merge — a batch may only carry requests one pass can serve.
func TestCoalesceKeyPartitioning(t *testing.T) {
	asm := testAssembly()
	m := obs.NewMetrics()
	c := coalescer(100*time.Millisecond, cpuPass(asm), m)
	reqA := memberRequest(pipeline.Query{Guide: "GATTACAGTANNN", MaxMismatches: 1})
	reqB := &pipeline.Request{Pattern: "NNNNNNNNNNNRG", Queries: []pipeline.Query{{Guide: "GATTACAGTANNN", MaxMismatches: 1}}}
	var wg sync.WaitGroup
	for _, req := range []*pipeline.Request{reqA, reqB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if _, perr, merr := joinReq(context.Background(), c, req, jsonEmit(&buf, req)); perr != nil || merr != nil {
				t.Errorf("join: %v / %v", perr, merr)
			}
		}()
	}
	wg.Wait()
	if got := counter(m, obs.MetricServeBatches); got != 2 {
		t.Errorf("batches = %d, want 2 (distinct keys must not share a pass)", got)
	}
	if got := counter(m, obs.MetricServeCoalesced); got != 0 {
		t.Errorf("coalesced = %d, want 0", got)
	}
}

// TestCoalesceMemberDeparture: one member's client dies, before its batch's
// pass starts or while it runs; the survivor still gets its full
// byte-identical stream, the departed member's error is the cancellation,
// not a pass failure, and it receives no hit. One that left before the pass
// has its guides left out of it.
func TestCoalesceMemberDeparture(t *testing.T) {
	asm := testAssembly()
	cpu := &search.CPU{}
	stay := memberRequest(pipeline.Query{Guide: "GATTACAGTANNN", MaxMismatches: 1})
	leave := memberRequest(pipeline.Query{Guide: "ACGTACGTACNNN", MaxMismatches: 1})
	golden := soloNDJSON(t, cpu, asm, stay)
	key := coalKey{genome: "test", pattern: stay.Pattern}

	for _, midPass := range []bool{false, true} {
		// Hold the pass at the gate until the leaving member is gone, so the
		// departure happens deterministically mid-pass.
		gate := make(chan struct{})
		started := make(chan int, 1)
		run := cpuPass(asm)
		gated := func(ctx context.Context, g string, req *pipeline.Request, emit func(pipeline.Hit) error) (*pipeline.Report, error) {
			started <- len(req.Queries)
			<-gate
			return run(ctx, g, req, emit)
		}
		// The window never expires on its own: the test starts the pass.
		c := coalescer(time.Hour, gated, nil)

		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		var stayBuf, leaveBuf bytes.Buffer
		left := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			rep, perr, merr := joinReq(context.Background(), c, stay, jsonEmit(&stayBuf, stay))
			if perr != nil || merr != nil || (rep != nil && rep.Degraded()) {
				t.Errorf("staying member: rep %+v, pass err %v, member err %v", rep, perr, merr)
			}
		}()
		go func() {
			defer wg.Done()
			_, perr, _ := joinReq(ctx, c, leave, jsonEmit(&leaveBuf, leave))
			if !errors.Is(perr, context.Canceled) {
				t.Errorf("departed member: err %v, want context.Canceled", perr)
			}
			close(left)
		}()
		b := openBatch(t, c, key, 2)
		if midPass {
			c.ripen(b)
			if n := <-started; n != 2 {
				t.Fatalf("the pass carries %d guides, want both members'", n)
			}
			cancel()
			<-left
		} else {
			cancel()
			<-left
			c.ripen(b)
			if n := <-started; n != 1 {
				t.Fatalf("the pass carries %d guides, want the survivor's alone", n)
			}
		}
		close(gate)
		wg.Wait()

		if got := stayBuf.String(); got != golden {
			t.Errorf("midPass=%v: survivor stream differs from solo run:\n%s\nvs\n%s", midPass, got, golden)
		}
		if strings.Contains(leaveBuf.String(), "ACGTACGTAC") {
			t.Errorf("midPass=%v: departed member still received hits: %q", midPass, leaveBuf.String())
		}
	}
}

// TestCoalesceAllGoneCancelsPass: when every member departs, the pass's
// context is cancelled rather than scanning a genome nobody wants.
func TestCoalesceAllGoneCancelsPass(t *testing.T) {
	started := make(chan struct{})
	canceled := make(chan struct{})
	run := func(ctx context.Context, _ string, _ *pipeline.Request, _ func(pipeline.Hit) error) (*pipeline.Report, error) {
		close(started)
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	}
	c := coalescer(10*time.Millisecond, run, nil)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := memberRequest(pipeline.Query{Guide: "GATTACAGTANNN", MaxMismatches: 1})
		joinReq(ctx, c, req, func(pipeline.Hit) error { return nil })
	}()
	<-started
	cancel()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("pass context never cancelled after the last member left")
	}
	<-done
}
