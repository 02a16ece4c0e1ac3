package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
)

// The write side: a client that stops reading holds up its pass for at
// most writeTimeout, never another member's stream, departure or pass.

// shortenWriteDeadline sets writeTimeout to d for the rest of the test.
func shortenWriteDeadline(t *testing.T, d time.Duration) {
	t.Helper()
	old := writeTimeout
	writeTimeout = d
	t.Cleanup(func() { writeTimeout = old })
}

// stallWriter is the ResponseWriter of a client that stopped reading:
// every write blocks, as one into full socket buffers does, until the write
// deadline set through the ResponseController passes — then it fails as a
// missed deadline does — or the test ends. Nothing reaches the client.
type stallWriter struct {
	http.ResponseWriter
	stalled chan<- struct{} // one token when a write first blocks
	end     <-chan struct{} // closed when the test ends

	mu       sync.Mutex
	deadline time.Time
}

func (w *stallWriter) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	w.deadline = t
	w.mu.Unlock()
	return nil
}

func (w *stallWriter) Write(p []byte) (int, error) {
	select {
	case w.stalled <- struct{}{}:
	default:
	}
	w.mu.Lock()
	dl := w.deadline
	w.mu.Unlock()
	var expired <-chan time.Time
	if !dl.IsZero() {
		timer := time.NewTimer(time.Until(dl))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-expired:
		return 0, os.ErrDeadlineExceeded
	case <-w.end:
		return 0, io.ErrClosedPipe
	}
}

func (w *stallWriter) Flush() {}

// Unwrap lets the handler's ResponseController reach the connection's read
// deadline.
func (w *stallWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// stallServer is a test server over eng whose requests carrying an X-Stall
// header get a stallWriter; the X-Name header of each finished handler call
// arrives on returned.
type stallServer struct {
	s        *Server
	ts       *httptest.Server
	stalled  chan struct{}
	returned chan string
}

func newStallServer(t *testing.T, eng *scriptEngine, mut func(*Config)) *stallServer {
	t.Helper()
	m := obs.NewMetrics()
	cfg := Config{Engine: eng, Genomes: map[string]*genome.Assembly{"test": testAssembly()}, Metrics: m}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	// Batches run only when the test ripens them.
	setWindow(s, time.Hour)
	st := &stallServer{s: s, stalled: make(chan struct{}, 1), returned: make(chan string, 4)}
	end := make(chan struct{})
	h := s.Handler()
	st.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Stall") != "" {
			w = &stallWriter{ResponseWriter: w, stalled: st.stalled, end: end}
		}
		h.ServeHTTP(w, r)
		st.returned <- r.Header.Get("X-Name")
	}))
	t.Cleanup(st.ts.Close)
	t.Cleanup(func() { close(end) }) // runs first: unblocks a stalled write
	return st
}

// send posts body under name on its own goroutine; the response body, read
// to its end, arrives on the returned channel. A stalled request's client
// reads what little the server sends once its handler returns.
func (st *stallServer) send(ctx context.Context, name, body string, stall bool) <-chan string {
	out := make(chan string, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, st.ts.URL+"/search", strings.NewReader(body))
		req.Header.Set("X-Name", name)
		if stall {
			req.Header.Set("X-Stall", "1")
		}
		resp, err := st.ts.Client().Do(req)
		if err != nil {
			out <- ""
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		out <- string(data)
	}()
	return out
}

// awaitReturn waits until the named request's handler has returned, within
// limit.
func (st *stallServer) awaitReturn(t *testing.T, name string, limit time.Duration) {
	t.Helper()
	deadline := time.After(limit)
	for {
		select {
		case got := <-st.returned:
			if got == name {
				return
			}
		case <-deadline:
			t.Fatalf("handler of %s still running after %v", name, limit)
		}
	}
}

// joinPair sends the reading request, then the stalled one, into one batch
// of key and starts its pass once both wait in it, with the reader first.
func (st *stallServer) joinPair(t *testing.T, ctx context.Context) (reader <-chan string) {
	t.Helper()
	key := coalKey{genome: "test", pattern: testPattern}
	reader = st.send(ctx, "reader", stallBodies[0], false)
	openBatch(t, st.s.sched, key, 1)
	st.send(context.Background(), "staller", stallBodies[1], true)
	st.s.sched.ripen(openBatch(t, st.s.sched, key, 2))
	return reader
}

var stallBodies = []string{
	`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`,
	`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"ACGTACGTACNNN","max_mismatches":1}]}`,
}

// readerGolden is the reading request's response when it runs alone.
func readerGolden(t *testing.T, eng *scriptEngine) string {
	t.Helper()
	_, preq, apiErr := DecodeRequest(strings.NewReader(stallBodies[0]), Limits{})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	trailer, _ := json.Marshal(Trailer{Done: true, Hits: int64(eng.rounds)})
	return soloNDJSON(t, eng, testAssembly(), preq) + string(trailer) + "\n"
}

// TestStalledReaderLeavesPass: in a pass of two members, one stops
// reading. Its write misses the deadline, it leaves the pass, and the
// reading member's stream — byte-identical to its solo golden — ends within
// the deadline plus a margin. The departure is counted once.
func TestStalledReaderLeavesPass(t *testing.T) {
	shortenWriteDeadline(t, 200*time.Millisecond)
	eng := &scriptEngine{rounds: 2000}
	st := newStallServer(t, eng, nil)
	golden := readerGolden(t, eng)
	before := runtime.NumGoroutine()

	reader := st.joinPair(t, context.Background())
	<-st.stalled
	stalledAt := time.Now()
	select {
	case got := <-reader:
		if got != golden {
			t.Errorf("reading member's response differs from its solo golden (%d vs %d bytes)", len(got), len(golden))
		}
		if waited := time.Since(stalledAt); waited > writeTimeout+5*time.Second {
			t.Errorf("reading member finished %v after the stall, deadline %v", waited, writeTimeout)
		}
	case <-time.After(writeTimeout + 5*time.Second):
		t.Fatal("the stalled member holds the reading member's stream past the write deadline")
	}
	st.awaitReturn(t, "staller", 5*time.Second)
	if n := counter(st.s.metrics, obs.MetricServeWriteTimeouts); n != 1 {
		t.Errorf("write timeouts counted %d, want 1", n)
	}
	st.ts.Client().CloseIdleConnections()
	awaitGoroutines(t, before)
}

// TestStalledReaderPeerLeaves: while one member's write is stalled, the
// other member's client leaves, and its handler returns at once, long
// before the write deadline.
func TestStalledReaderPeerLeaves(t *testing.T) {
	shortenWriteDeadline(t, time.Minute)
	eng := &scriptEngine{rounds: 2000}
	st := newStallServer(t, eng, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st.joinPair(t, ctx)
	<-st.stalled
	cancel()
	st.awaitReturn(t, "reader", 5*time.Second)
}

// TestStalledReaderFreesSlot: under SerializePasses, a request sent after
// one member of the running pass stalled waits for the one pass slot, and
// completes once the stalled member's write misses its deadline.
func TestStalledReaderFreesSlot(t *testing.T) {
	shortenWriteDeadline(t, 200*time.Millisecond)
	eng := &scriptEngine{rounds: 2000}
	st := newStallServer(t, eng, func(c *Config) { c.SerializePasses = true })
	golden := readerGolden(t, eng)

	st.joinPair(t, context.Background())
	<-st.stalled
	third := st.send(context.Background(), "third", stallBodies[0], false)
	st.s.sched.ripen(openBatch(t, st.s.sched, coalKey{genome: "test", pattern: testPattern}, 1))
	select {
	case got := <-third:
		if got != golden {
			t.Errorf("third request's response differs from its solo golden (%d vs %d bytes)", len(got), len(golden))
		}
	case <-time.After(writeTimeout + 5*time.Second):
		t.Fatal("the stalled pass still holds the only slot past the write deadline")
	}
}
