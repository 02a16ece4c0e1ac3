package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
)

// The search body's read deadline: a client that trickles its body is cut
// off with a typed error, and a stream that outlasts the deadline is not.

// shortenBodyDeadline sets bodyReadTimeout to d for the rest of the test.
func shortenBodyDeadline(t *testing.T, d time.Duration) {
	t.Helper()
	old := bodyReadTimeout
	bodyReadTimeout = d
	t.Cleanup(func() { bodyReadTimeout = old })
}

// awaitGoroutines fails the test unless the goroutine count falls back to
// before within a few seconds.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the test", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bodyHook calls read before each Read of the wrapped body.
type bodyHook struct {
	io.ReadCloser
	read func()
}

func (b bodyHook) Read(p []byte) (int, error) {
	b.read()
	return b.ReadCloser.Read(p)
}

// TestStalledBodyTimesOut: a client that sends its headers and only part of
// the body it announced, then stalls, gets a typed 408 once the body
// deadline passes, whether it stalls inside the request object or after it.
// A Drain begun while that body is being read returns without waiting on
// the client.
func TestStalledBodyTimesOut(t *testing.T) {
	shortenBodyDeadline(t, 200*time.Millisecond)
	stalls := []struct {
		name   string
		sent   string
		length int // the Content-Length announced
	}{
		{"inside-object", searchBody[:len(searchBody)/2], len(searchBody)},
		{"after-object", searchBody, len(searchBody) + 8},
	}
	for _, st := range stalls {
		t.Run(st.name, func(t *testing.T) {
			s, err := New(Config{Engine: &search.CPU{}, Genomes: map[string]*genome.Assembly{"test": testAssembly()}})
			if err != nil {
				t.Fatal(err)
			}
			s.SetReady(true)
			reading := make(chan struct{}) // closed once the handler reads the body
			var once sync.Once
			h := s.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r = r.WithContext(r.Context())
				r.Body = bodyHook{r.Body, func() { once.Do(func() { close(reading) }) }}
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			before := runtime.NumGoroutine()

			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST /search HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				st.length, st.sent)
			select {
			case <-reading:
			case <-time.After(5 * time.Second):
				t.Fatal("handler never read the body")
			}
			// The request is in flight: Drain has to see it finish.
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drained <- s.Drain(ctx)
			}()

			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no response to the stalled body: %v", err)
			}
			if resp.StatusCode != http.StatusRequestTimeout {
				t.Errorf("status %d, want %d", resp.StatusCode, http.StatusRequestTimeout)
			}
			if code := errorCode(t, resp); code != "body-timeout" {
				t.Errorf("error code %q, want body-timeout", code)
			}
			resp.Body.Close()
			if err := <-drained; err != nil {
				t.Fatalf("drain waited on the stalled request: %v", err)
			}

			conn.Close()
			ts.Close()
			awaitGoroutines(t, before)
		})
	}
}

// TestStreamOutlivesBodyDeadline: the deadline is lifted once the body is
// in, so a stream that runs well past it still ends with its trailer. Left
// armed, its expiry would cancel the request through the server's
// background read of the connection.
func TestStreamOutlivesBodyDeadline(t *testing.T) {
	shortenBodyDeadline(t, 100*time.Millisecond)
	eng := &stubEngine{
		block:   make(chan struct{}),
		started: make(chan struct{}, 1),
		hits:    []pipeline.Hit{{QueryIndex: 0, SeqName: "chr1", Pos: 4, Dir: '+', Site: "GATTACAGTACGG"}},
	}
	_, ts := newTestServer(t, func(c *Config) { c.Engine = eng })
	before := runtime.NumGoroutine()

	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json",
			strings.NewReader(searchBody))
		if err != nil {
			t.Errorf("search: %v", err)
			done <- result{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, string(data)}
	}()
	<-eng.started
	<-time.After(5 * bodyReadTimeout) // the pass runs past the body deadline
	close(eng.block)

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("status %d, body %q", r.status, r.body)
	}
	resp := &http.Response{Body: io.NopCloser(strings.NewReader(r.body))}
	if lines, tr := readStream(t, resp); len(lines) != 1 || !tr.Done || tr.Hits != 1 || tr.Error != nil {
		t.Errorf("stream %q ended with trailer %+v; want one hit and a clean trailer", lines, tr)
	}

	ts.Client().CloseIdleConnections()
	ts.Close()
	awaitGoroutines(t, before)
}
