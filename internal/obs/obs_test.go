package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilDisabledPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		tr.Complete("track", "stage", 3, start, time.Millisecond)
		tr.Instant("track", "retry", 3)
		_ = tr.Len()
		_ = tr.Spans()
		m.Count(MetricChunks, 1)
		m.Gauge(MetricQueueDepth, 2)
		m.Observe(MetricStageSeconds, 1e-4)
	})
	if allocs != 0 {
		t.Fatalf("nil obs disabled path allocated %v times per run, want 0", allocs)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	tr.Complete("w0", "stage", 0, start, 2*time.Millisecond, Attr{Key: "bytes", Value: "300"})
	tr.Complete("w1", "find", 1, start.Add(time.Millisecond), time.Millisecond)
	tr.Instant("w0", "retry", 1, Attr{Key: "try", Value: "2"})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	spans := tr.Spans()
	if spans[0].Name != "stage" || spans[0].Chunk != 0 || spans[0].Duration != 2*time.Millisecond {
		t.Fatalf("unexpected first span: %+v", spans[0])
	}
	if !spans[2].Instant || spans[2].Name != "retry" {
		t.Fatalf("unexpected instant span: %+v", spans[2])
	}
	// The returned slice is a copy: mutating it must not affect the tracer.
	spans[0].Name = "mutated"
	if tr.Spans()[0].Name != "stage" {
		t.Fatal("Spans() exposed internal storage")
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer()
	base := tr.epoch
	tr.Complete("pipe/stager", "stage", 0, base.Add(time.Millisecond), 2*time.Millisecond, Attr{Key: "bytes", Value: "128"})
	tr.Complete("pipe/worker0", "find", 0, base.Add(3*time.Millisecond), time.Millisecond)
	tr.Instant("pipe/resilient", "watchdog-kill", 0)
	tr.Complete("pipe/worker0", "tiny", 1, base.Add(5*time.Millisecond), 0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete, instant int
	tracks := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			tracks[ev.Args["name"].(string)] = ev.TID
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("complete event %q has non-positive dur %v", ev.Name, ev.Dur)
			}
		case "i":
			instant++
			if ev.Scope != "t" {
				t.Fatalf("instant event scope = %q, want t", ev.Scope)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if meta != 3 || complete != 3 || instant != 1 {
		t.Fatalf("event counts meta=%d complete=%d instant=%d, want 3/3/1", meta, complete, instant)
	}
	for _, track := range []string{"pipe/stager", "pipe/worker0", "pipe/resilient"} {
		if _, ok := tracks[track]; !ok {
			t.Fatalf("missing thread_name metadata for track %q (got %v)", track, tracks)
		}
	}
	// Body events must be time-ordered after the metadata block.
	var lastTS float64
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if ev.TS < lastTS {
			t.Fatalf("events not sorted by ts: %v after %v", ev.TS, lastTS)
		}
		lastTS = ev.TS
	}
}

func TestWriteChromeTraceNilTracer(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace output invalid: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("nil trace output missing traceEvents")
	}
}

func TestLabelBuilder(t *testing.T) {
	if got := L("x_total"); got != "x_total" {
		t.Fatalf("L no labels = %q", got)
	}
	if got := L("x_total", "dir", "read"); got != `x_total{dir="read"}` {
		t.Fatalf("L one label = %q", got)
	}
	if got := L("x_total", "a", "1", "b", "2"); got != `x_total{a="1",b="2"}` {
		t.Fatalf("L two labels = %q", got)
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.Count(MetricChunks, 3)
	m.Count(MetricChunks, 2)
	m.Count(L(MetricFaults, "site", "launch"), 1)
	m.Gauge(MetricQueueDepth, 2)
	m.Gauge(MetricQueueDepth, 1)
	m.Observe(MetricStageSeconds, 5e-5) // le="0.0001" bucket
	m.Observe(MetricStageSeconds, 0.5)  // le="1" bucket
	m.Observe(MetricStageSeconds, 99)   // +Inf overflow

	snap := m.Snapshot()
	if got := snap.Counters[MetricChunks]; got != 5 {
		t.Fatalf("counter chunks = %d, want 5", got)
	}
	if got := snap.Gauges[MetricQueueDepth]; got != 1 {
		t.Fatalf("gauge = %v, want the last value set, 1", got)
	}
	if snap.Counters[L(MetricFaults, "site", "launch")] != 1 {
		t.Fatalf("snapshot missing labelled counter: %+v", snap.Counters)
	}
	h, ok := snap.Histograms[MetricStageSeconds]
	if !ok {
		t.Fatalf("snapshot missing histogram: %+v", snap.Histograms)
	}
	if h.Count != 3 || h.Sum != 5e-5+0.5+99 {
		t.Fatalf("histogram count=%d sum=%v", h.Count, h.Sum)
	}
	if len(h.Buckets) != len(DefBuckets)+1 || h.Buckets[len(h.Buckets)-1] != 1 {
		t.Fatalf("histogram buckets = %v", h.Buckets)
	}
	// Snapshot must be a copy.
	snap.Counters[MetricChunks] = 999
	if m.Snapshot().Counters[MetricChunks] != 5 {
		t.Fatal("Snapshot exposed internal counter map")
	}

	// Snapshot JSON round-trips.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Count(MetricChunks, 4)
	m.Count(L(MetricCLTransfers, "dir", "read"), 2)
	m.Count(L(MetricCLTransfers, "dir", "write"), 3)
	m.Gauge(MetricQueueDepth, 1)
	// Power-of-two observations keep the float sum exact for the string match.
	m.Observe(L(MetricKernelLaunchSeconds, "kernel", "finder"), 0.0009765625) // 2^-10, le="0.001"
	m.Observe(L(MetricKernelLaunchSeconds, "kernel", "finder"), 0.001953125)  // 2^-9, le="0.01"

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE casoffinder_chunks_total counter\n",
		"casoffinder_chunks_total 4\n",
		"# TYPE casoffinder_cl_transfers_total counter\n",
		`casoffinder_cl_transfers_total{dir="read"} 2` + "\n",
		`casoffinder_cl_transfers_total{dir="write"} 3` + "\n",
		"# TYPE casoffinder_queue_depth gauge\n",
		"casoffinder_queue_depth 1\n",
		"# TYPE casoffinder_kernel_launch_seconds histogram\n",
		`casoffinder_kernel_launch_seconds_bucket{kernel="finder",le="0.01"} 2` + "\n",
		`casoffinder_kernel_launch_seconds_bucket{kernel="finder",le="+Inf"} 2` + "\n",
		`casoffinder_kernel_launch_seconds_sum{kernel="finder"} 0.0029296875` + "\n",
		`casoffinder_kernel_launch_seconds_count{kernel="finder"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The le="0.001" cumulative bucket holds only the first observation.
	if !strings.Contains(out, `casoffinder_kernel_launch_seconds_bucket{kernel="finder",le="0.001"} 1`+"\n") {
		t.Fatalf("cumulative bucket counts wrong:\n%s", out)
	}
	// Nil registry writes an empty page without error.
	var nilM *Metrics
	buf.Reset()
	if err := nilM.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}
