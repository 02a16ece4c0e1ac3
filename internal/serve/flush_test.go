package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
	"casoffinder/internal/search"
)

// The response flush policy (hitStream): first hit at once, every later hit
// within flushDelay with no further emit, the same bytes as an unbuffered
// stream, and nothing touching the ResponseWriter once the handler is gone —
// whatever the client does to the connection.

// flushSlack is how long a test waits for a line the policy owes the client
// "within flushDelay". It is generous because the suite runs under the race
// detector on loaded machines; the failure it guards against — a flush that
// waits for the next hit — never delivers the line at all.
const flushSlack = 250 * flushDelay

// scriptEngine emits rounds hits per query (query-major within a round, so
// each member's stream is its own rounds in order), pausing after the
// rounds listed in stops until resumed.
type scriptEngine struct {
	rounds  int
	stops   []int
	at      chan int      // announces each pause with the rounds emitted so far
	resume  chan struct{} // one receive ends a pause
	emitted atomic.Int64  // hits handed to emit
}

func (e *scriptEngine) Name() string { return "script" }

func (e *scriptEngine) Run(asm *genome.Assembly, req *search.Request) ([]search.Hit, error) {
	return search.Collect(context.Background(), e, asm, req)
}

func (e *scriptEngine) Stream(ctx context.Context, asm *genome.Assembly, req *search.Request, emit func(search.Hit) error) error {
	stops := e.stops
	for i := 0; i < e.rounds; i++ {
		for qi, q := range req.Queries {
			h := search.Hit{QueryIndex: qi, SeqName: "chr1", Pos: i, Dir: '+', Mismatches: i % 3, Site: q.Guide}
			if err := emit(h); err != nil {
				return err
			}
			e.emitted.Add(1)
		}
		if len(stops) > 0 && stops[0] == i+1 {
			stops = stops[1:]
			select {
			case e.at <- i + 1:
			case <-ctx.Done():
				return ctx.Err()
			}
			select {
			case <-e.resume:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// guardWriter fails the test when the handler's ResponseWriter is used after
// the handler returned.
type guardWriter struct {
	http.ResponseWriter
	t        *testing.T
	returned atomic.Bool
}

func (g *guardWriter) check() {
	if g.returned.Load() {
		g.t.Error("ResponseWriter used after the handler returned")
	}
}
func (g *guardWriter) Header() http.Header         { g.check(); return g.ResponseWriter.Header() }
func (g *guardWriter) Write(p []byte) (int, error) { g.check(); return g.ResponseWriter.Write(p) }
func (g *guardWriter) WriteHeader(status int)      { g.check(); g.ResponseWriter.WriteHeader(status) }
func (g *guardWriter) Flush()                      { g.check(); g.ResponseWriter.(http.Flusher).Flush() }

// Unwrap lets the handler's ResponseController reach the connection's
// deadlines, as it does without the guard.
func (g *guardWriter) Unwrap() http.ResponseWriter { return g.ResponseWriter }

// newGuardedServer is newTestServer over eng with every handler call behind a
// guardWriter; returned receives one token per finished handler call.
func newGuardedServer(t *testing.T, eng search.Engine, mut func(*Config)) (s *Server, ts *httptest.Server, returned chan struct{}) {
	t.Helper()
	cfg := Config{Engine: eng, Genomes: map[string]*genome.Assembly{"test": testAssembly()}}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	returned = make(chan struct{}, 16)
	h := s.Handler()
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := &guardWriter{ResponseWriter: w, t: t}
		h.ServeHTTP(g, r)
		g.returned.Store(true)
		returned <- struct{}{}
	}))
	t.Cleanup(ts.Close)
	return s, ts, returned
}

// flushModes names the routes to the one writer. Every request joins a
// coalescing batch, so there is one.
var flushModes = []string{"coalesced"}

// awaitLine returns the next response line, failing the test when it does
// not arrive within flushSlack.
func awaitLine(t *testing.T, lines <-chan string, what string) string {
	t.Helper()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatalf("%s: response ended", what)
		}
		return line
	case <-time.After(flushSlack):
		t.Fatalf("%s: not delivered within %v", what, flushSlack)
		return ""
	}
}

// pumpLines reads a response body line by line into a channel, closed at
// EOF or on a read error.
func pumpLines(body io.Reader) <-chan string {
	lines := make(chan string, 4)
	go func() {
		defer close(lines)
		br := bufio.NewReader(body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			lines <- line
		}
	}()
	return lines
}

// TestFlushFirstHitAtOnceThenBounded: with the pass blocked after its first
// hit the client already holds that line; with the pass blocked again after
// its second hit — no further emit, no trailer — that line follows within
// the bound.
func TestFlushFirstHitAtOnceThenBounded(t *testing.T) {
	for _, mode := range flushModes {
		t.Run(mode, func(t *testing.T) {
			eng := &scriptEngine{rounds: 2, stops: []int{1, 2}, at: make(chan int), resume: make(chan struct{})}
			_, ts, _ := newGuardedServer(t, eng, nil)
			resp := postSearch(t, ts, searchBody, nil)
			lines := pumpLines(resp.Body)

			<-eng.at
			first := awaitLine(t, lines, "first hit with the pass blocked")
			if !strings.Contains(first, `"pos":0`) {
				t.Fatalf("first line = %q", first)
			}
			eng.resume <- struct{}{}

			<-eng.at
			second := awaitLine(t, lines, "second hit with the pass blocked and no further emit")
			if !strings.Contains(second, `"pos":1`) {
				t.Fatalf("second line = %q", second)
			}
			eng.resume <- struct{}{}

			var tr Trailer
			if err := json.Unmarshal([]byte(awaitLine(t, lines, "trailer")), &tr); err != nil || !tr.Done || tr.Hits != 2 {
				t.Errorf("trailer = %+v (%v), want done with 2 hits", tr, err)
			}
		})
	}
}

// TestFlushResponseBytes: batching the flush changes no byte. Coalesced
// responses equal the member's soloNDJSON golden plus its trailer
// at one hit (flushed at once), two (one delayed flush) and ten thousand
// (the buffer fills and delayed flushes interleave).
func TestFlushResponseBytes(t *testing.T) {
	bodies := []string{
		`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`,
		`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"ACGTACGTACNNN","max_mismatches":1}]}`,
	}
	for _, rounds := range []int{1, 2, 10000} {
		eng := &scriptEngine{rounds: rounds}
		m := obs.NewMetrics()
		s, ts, _ := newGuardedServer(t, eng, func(c *Config) { c.Metrics = m })
		setWindow(s, 100*time.Millisecond)
		golden := make([]string, len(bodies))
		for i, body := range bodies {
			_, preq, apiErr := DecodeRequest(strings.NewReader(body), Limits{})
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			trailer, _ := json.Marshal(Trailer{Done: true, Hits: int64(rounds)})
			golden[i] = soloNDJSON(t, eng, testAssembly(), preq) + string(trailer) + "\n"
		}
		for _, mode := range flushModes {
			got := make([]string, len(bodies))
			var wg sync.WaitGroup
			for i, body := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					data, err := io.ReadAll(postSearch(t, ts, body, nil).Body)
					if err != nil {
						t.Errorf("read: %v", err)
					}
					got[i] = string(data)
				}()
			}
			wg.Wait()
			for i := range bodies {
				if got[i] != golden[i] {
					t.Errorf("%d rounds, %s request %d: response differs from the golden (%d vs %d bytes)",
						rounds, mode, i, len(got[i]), len(golden[i]))
				}
			}
		}
		if n := counter(m, obs.MetricServeCoalesced); n != int64(len(bodies)) {
			t.Errorf("%d rounds: coalesced counter = %d, want %d (the coalesced requests did not share a pass)", rounds, n, len(bodies))
		}
	}
}

// TestFlushClientAbuse: a client that disconnects mid-stream, and one that
// stops reading until the server's write to it fails, each cost exactly
// their own request — the handler returns, nothing writes to the
// ResponseWriter afterwards (a delayed flush may be pending when the
// handler leaves), Drain completes and no goroutine is left behind.
func TestFlushClientAbuse(t *testing.T) {
	abuses := []struct {
		name  string
		stall bool // stop reading and let the server back up before leaving
	}{{"disconnect", false}, {"stops-reading", true}}
	for _, mode := range flushModes {
		for _, abuse := range abuses {
			t.Run(mode+"/"+abuse.name, func(t *testing.T) {
				eng := &scriptEngine{rounds: math.MaxInt}
				s, ts, returned := newGuardedServer(t, eng, nil)
				before := runtime.NumGoroutine()

				resp := postSearch(t, ts, searchBody, nil)
				if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
					t.Fatalf("first line: %v", err)
				}
				if abuse.stall {
					// Unread, the stream fills the socket buffers and the
					// server-side write blocks: emit stops making progress.
					for {
						n := eng.emitted.Load()
						time.Sleep(50 * time.Millisecond)
						if eng.emitted.Load() == n {
							break
						}
					}
				}
				resp.Body.Close() // an unfinished body closes the connection

				select {
				case <-returned:
				case <-time.After(5 * time.Second):
					t.Fatal("handler still running after its client left")
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := s.Drain(ctx); err != nil {
					t.Fatalf("drain: %v", err)
				}
				// Outlive any delayed flush armed before the handler left:
				// the guard catches it touching the writer.
				time.Sleep(5 * flushDelay)
				ts.Client().CloseIdleConnections()
				awaitGoroutines(t, before)
			})
		}
	}
}
