package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// streamEngines is the full engine list for stream/batch equivalence: the
// shared trio plus the reference byte scan.
func streamEngines(t *testing.T) []Engine {
	t.Helper()
	return append(engines(t), &refCPU{Workers: 2, Arm: refBytes})
}

// TestStreamMatchesRun: for every engine, the hits emitted by Stream,
// re-sorted, must equal Run's hits exactly — the streaming path cannot
// change what is found.
func TestStreamMatchesRun(t *testing.T) {
	asm := testAssembly(t, 17, []int{700, 450, 90, 5}, testSite)
	req := testRequest(2)
	for _, eng := range streamEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			want, err := eng.Run(asm, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("no hits; fixture too sparse")
			}
			var got []Hit
			err = eng.Stream(context.Background(), asm, req, func(h Hit) error {
				got = append(got, h)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			streamed := append([]Hit(nil), got...)
			sortHits(got)
			if !equalHits(got, want) {
				t.Errorf("streamed hits != Run hits (%d vs %d)", len(got), len(want))
			}
			// The stream itself must be deterministic: a second pass emits
			// the same sequence.
			var again []Hit
			if err := eng.Stream(context.Background(), asm, req, func(h Hit) error {
				again = append(again, h)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !equalHits(streamed, again) {
				t.Error("stream order is not deterministic across runs")
			}
		})
	}
}

// TestStreamEmitErrorPropagates: an emit error must abort the stream and
// come back unwrapped enough for errors.Is.
func TestStreamEmitErrorPropagates(t *testing.T) {
	asm := testAssembly(t, 23, []int{800}, testSite)
	req := testRequest(2)
	sentinel := errors.New("sink full")
	for _, eng := range streamEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			err := eng.Stream(context.Background(), asm, req, func(Hit) error {
				return sentinel
			})
			if !errors.Is(err, sentinel) {
				t.Errorf("err = %v, want the emit error", err)
			}
		})
	}
}

// TestStreamCancellation: cancelling the context from inside emit must abort
// the run with context.Canceled and leave no pipeline goroutines behind.
func TestStreamCancellation(t *testing.T) {
	asm := testAssembly(t, 29, []int{900, 700}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 64 // many chunks, so cancellation lands mid-plan
	for _, eng := range engines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			emitted := 0
			err := eng.Stream(ctx, asm, req, func(Hit) error {
				emitted++
				if emitted == 1 {
					cancel()
				}
				return nil
			})
			if emitted == 0 {
				t.Fatal("no hits emitted; fixture too sparse to exercise cancellation")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The pipeline goroutines must wind down (no leaks); allow a
			// grace period for workers draining in-flight chunks.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestRunPreCancelled: a context cancelled before the run starts yields
// ctx.Err() and no partial output from Collect.
func TestRunPreCancelled(t *testing.T) {
	asm := testAssembly(t, 31, []int{400}, testSite)
	req := testRequest(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range streamEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			hits, err := Collect(ctx, eng, asm, req)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if hits != nil {
				t.Errorf("partial hits returned: %d", len(hits))
			}
		})
	}
}

// TestStreamChunkMajorOrder: the pipeline engines emit hits grouped by
// chunk in chunk order, sorted within each chunk — so positions within one
// sequence and one query must be non-decreasing.
func TestStreamChunkMajorOrder(t *testing.T) {
	asm := testAssembly(t, 37, []int{1200}, testSite)
	req := testRequest(2)
	eng := &CPU{Workers: 4}
	lastPos := -1
	err := eng.Stream(context.Background(), asm, req, func(h Hit) error {
		if h.Pos < lastPos {
			return fmt.Errorf("position went backwards: %d after %d", h.Pos, lastPos)
		}
		lastPos = h.Pos
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastPos < 0 {
		t.Fatal("no hits emitted")
	}
}
