package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"casoffinder/internal/obs"
)

// span is one interval of the traced pass. The benchmark records its own
// spans around each call into a layer's public functions and adopts the
// spans the engine already records in its obs.Tracer as their children;
// nothing inside the program gains a span for this.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"` // traced op or request index; -1 for prep probes
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	track string // engine trace row, used only to nest adopted spans
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps the spans in memory until the workload ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// start opens a span and returns its id.
func (t *tracer) start(name, layer string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, StartNs: t.ns(time.Now())})
	return id
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	return t.spans[id].seconds()
}

// add records a span whose interval was timed elsewhere.
func (t *tracer) add(name, layer string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, StartNs: t.ns(start), EndNs: t.ns(end)})
	return id
}

// interval is a child interval waiting to be nested under a parent span:
// an engine span, or a span the benchmark timed inside an engine callback.
type interval struct {
	name, layer, track string
	start, end         time.Time
}

// engineIntervals converts the engine's own spans. Kernel launches belong to
// the gpu layer, request phases to serve, every other stage to pipeline.
func engineIntervals(spans []obs.Span) []interval {
	out := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.Instant {
			continue
		}
		layer := "pipeline"
		switch {
		case strings.HasPrefix(s.Name, "launch:"):
			layer = "gpu"
		case s.Track == "serve":
			layer = "serve"
		}
		out = append(out, interval{name: s.Name, layer: layer, track: s.Track, start: s.Start, end: s.Start.Add(s.Duration)})
	}
	return out
}

// adopt nests intervals under parent: each becomes the child of the
// innermost already adopted interval that contains it in time on the same
// track, and of parent otherwise. Kernel launches run on the device's own
// track inside a find or compare of the single simulator worker, so for them
// any track qualifies.
func (t *tracer) adopt(parent, op int, ivs []interval) {
	sort.SliceStable(ivs, func(i, j int) bool {
		if !ivs[i].start.Equal(ivs[j].start) {
			return ivs[i].start.Before(ivs[j].start)
		}
		return ivs[i].end.After(ivs[j].end)
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	first := len(t.spans)
	for _, iv := range ivs {
		s := span{ID: len(t.spans), Parent: parent, Name: iv.name, Layer: iv.layer, Op: op,
			StartNs: t.ns(iv.start), EndNs: t.ns(iv.end), track: iv.track}
		for i := len(t.spans) - 1; i >= first; i-- {
			p := t.spans[i]
			if p.StartNs <= s.StartNs && s.EndNs <= p.EndNs && (p.track == s.track || s.Layer == "gpu") {
				s.Parent = p.ID
				break
			}
		}
		t.spans = append(t.spans, s)
	}
}

// anyOp makes named match spans of every op.
const anyOp = -2

// named returns the durations, in seconds, of the spans of one op (or anyOp)
// with that name; every comparer variant's launch span counts as
// "launch:comparer".
func (t *tracer) named(name string, op int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		match := s.Name == name || (name == "launch:comparer" && strings.HasPrefix(s.Name, name))
		if match && (op == anyOp || s.Op == op) {
			out = append(out, s.seconds())
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layerTime is a layer's total span time and its self time: each span's
// duration minus the part of that interval its child spans cover.
type layerTime struct {
	SpanS float64 `json:"span_s"`
	SelfS float64 `json:"self_s"`
}

func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Layer]
		lt.SpanS += s.seconds()
		lt.SelfS += float64(s.EndNs-s.StartNs-covered(children[s.ID], s.StartNs, s.EndNs)) / 1e9
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi]: parallel
// workers' spans overlap, and an interval must not be subtracted twice.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// write stores the trace as DIR/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	layers := t.layers()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Layers   map[string]layerTime `json:"layers"`
		Spans    []span               `json:"spans"`
	}{workload, seed, layers, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}
