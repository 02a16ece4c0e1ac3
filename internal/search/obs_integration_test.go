package search

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// spanChunks collects the chunk indices of every span with the given name.
func spanChunks(spans []obs.Span, name string) map[int]bool {
	out := map[int]bool{}
	for _, s := range spans {
		if s.Name == name && s.Chunk >= 0 {
			out[s.Chunk] = true
		}
	}
	return out
}

// requireContiguous asserts the chunk set is exactly {0..n-1}.
func requireContiguous(t *testing.T, name string, got map[int]bool, n int) {
	t.Helper()
	if len(got) != n {
		t.Errorf("%q spans cover %d chunks, want %d", name, len(got), n)
	}
	for i := 0; i < n; i++ {
		if !got[i] {
			t.Errorf("no %q span for chunk %d", name, i)
		}
	}
}

// TestTraceCoversResilientRun drives the resilient executor under seeded
// transient faults and checks the acceptance shape of the trace: stage,
// launch, drain and emit spans for every chunk, retry instants matching the
// profile, and a Chrome dump that parses as JSON.
func TestTraceCoversResilientRun(t *testing.T) {
	asm := testAssembly(t, 11, []int{700, 450, 90}, testSite)
	req := testRequest(2)
	plan := fault.Plan{Seed: 5, Rate: 0.4, Site: fault.SiteCLEnqueue}
	dev := gpu.New(device.MI100(), gpu.WithWorkers(4))
	dev.SetFaults(fault.NewInjector(plan))
	tr := obs.NewTracer()
	m := obs.NewMetrics()
	eng := &SimCL{
		Device: dev, Variant: kernels.Base,
		Resilience: &pipeline.Resilience{Seed: plan.Seed},
		Trace:      tr, Metrics: m,
	}
	hits, err := eng.Run(asm, req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits; test data is too sparse")
	}
	p := eng.LastProfile()
	if p.Retries == 0 {
		t.Fatal("no retries; raise the fault rate for the trace to cover the retry path")
	}

	spans := tr.Spans()
	chunks := int(m.Snapshot().Counters[obs.MetricPipelineChunks])
	if chunks < 2 {
		t.Fatalf("only %d pipeline chunks; ChunkBytes should force several", chunks)
	}
	requireContiguous(t, "stage", spanChunks(spans, "stage"), chunks)
	requireContiguous(t, "drain", spanChunks(spans, "drain"), chunks)
	requireContiguous(t, "emit", spanChunks(spans, "emit"), chunks)

	var launches, retries int
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "launch:") {
			launches++
			if !strings.HasSuffix(s.Track, "/gpu") {
				t.Errorf("launch span on track %q, want a /gpu device track", s.Track)
			}
		}
		if s.Name == "retry" {
			if !s.Instant {
				t.Errorf("retry span not an instant: %+v", s)
			}
			retries++
		}
	}
	if launches == 0 {
		t.Error("no kernel launch spans recorded")
	}
	if int64(retries) != p.Retries {
		t.Errorf("%d retry instants, profile says %d retries", retries, p.Retries)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Errorf("trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
}

// TestTraceCoversConcurrentPipeline checks a multi-slot run: the per-worker
// and collector tracks carry their phase spans for every chunk, each
// attempt's phases sit inside its scan span, the queue-depth gauge drains to
// zero, and the hits counter matches the emitted stream.
func TestTraceCoversConcurrentPipeline(t *testing.T) {
	asm := testAssembly(t, 11, []int{700, 450, 90}, testSite)
	req := testRequest(2)
	tr := obs.NewTracer()
	m := obs.NewMetrics()
	eng := &CPU{Workers: 3, Trace: tr, Metrics: m}
	var hits []Hit
	err := eng.Stream(context.Background(), asm, req, func(h Hit) error {
		hits = append(hits, h)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}

	spans := tr.Spans()
	snap := m.Snapshot()
	chunks := int(snap.Counters[obs.MetricPipelineChunks])
	if chunks < 2 {
		t.Fatalf("only %d pipeline chunks; ChunkBytes should force several", chunks)
	}
	for _, name := range []string{"stage", "find", "compare", "drain", "emit"} {
		requireContiguous(t, name, spanChunks(spans, name), chunks)
	}
	for _, s := range spans {
		switch s.Name {
		case "validate", "compile":
			if s.Chunk != -1 {
				t.Errorf("%s span bound to chunk %d, want run-level -1", s.Name, s.Chunk)
			}
		case "stage", "find", "compare", "drain", "scan":
			if !strings.HasPrefix(s.Track, "cpu/worker") {
				t.Errorf("%s span on track %q, want a worker track", s.Name, s.Track)
			}
		case "emit":
			if s.Track != "cpu/collect" {
				t.Errorf("emit span on track %q, want the collector track", s.Track)
			}
		}
	}
	requireContiguous(t, "scan", spanChunks(spans, "scan"), chunks)
	if got := snap.Gauges[obs.MetricQueueDepth]; got != 0 {
		t.Errorf("queue depth gauge = %g after the run, want 0", got)
	}
	if got := snap.Counters[obs.MetricHits]; got != int64(len(hits)) {
		t.Errorf("hits counter = %d, stream emitted %d", got, len(hits))
	}
	if snap.Histograms[obs.MetricStageSeconds].Count == 0 || snap.Histograms[obs.MetricScanSeconds].Count == 0 {
		t.Error("stage/scan latency histograms missing")
	}
}
