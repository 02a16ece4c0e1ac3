package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// DefBuckets are the histogram upper bounds (seconds) used for every latency
// histogram: exponential decades from a microsecond to ten seconds, wide
// enough for both a simulated kernel launch and a watchdog-length stall.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// histogram is one labelled series: per-bucket counts (the last slot is the
// +Inf overflow), the running sum and the observation count.
type histogram struct {
	buckets []int64
	sum     float64
	count   int64
}

// Metrics is the run-wide metrics registry: counters, gauges and histograms
// keyed by their full Prometheus-style name (label set included — build
// labelled names with L). A nil *Metrics is valid and records nothing, so
// engines thread it unconditionally; every recording method begins with a
// pointer check. Recording is safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// L builds a labelled series name: L("x_total", "dir", "read") is
// `x_total{dir="read"}`. Label pairs must come in key, value order and keys
// should be ordered consistently at every call site, since the name is the
// map key.
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Count adds delta to a counter.
func (m *Metrics) Count(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Gauge sets a gauge to v.
func (m *Metrics) Gauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe records one observation into a histogram with the default
// bucket bounds.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &histogram{buckets: make([]int64, len(DefBuckets)+1)}
		m.hists[name] = h
	}
	i := sort.SearchFloat64s(DefBuckets, v)
	h.buckets[i]++
	h.sum += v
	h.count++
	m.mu.Unlock()
}

// HistogramSnapshot is the JSON form of one histogram series. Buckets holds
// the per-bound counts (not cumulative); the final extra entry counts
// observations above the last bound.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Snapshot is the JSON form of the whole registry, written by the CLI next
// to the search.Profile so the two can be cross-checked offline.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry snapshots
// empty.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		s.Gauges[k] = v
	}
	for k, h := range m.hists {
		hs := HistogramSnapshot{
			Count:   h.count,
			Sum:     h.sum,
			Bounds:  DefBuckets,
			Buckets: make([]int64, len(h.buckets)),
		}
		copy(hs.Buckets, h.buckets)
		s.Histograms[k] = hs
	}
	return s
}

// splitSeries splits a full series name into its family and its label body:
// `x{a="b"}` → ("x", `a="b"`); an unlabelled name returns ("x", "").
func splitSeries(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels rebuilds a series name from a family and label-body strings,
// dropping empties.
func joinLabels(family string, labels ...string) string {
	parts := labels[:0:0]
	for _, l := range labels {
		if l != "" {
			parts = append(parts, l)
		}
	}
	if len(parts) == 0 {
		return family
	}
	return family + "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry as a Prometheus text-exposition page:
// one # TYPE line per family, samples sorted by name, histograms expanded
// into cumulative _bucket/_sum/_count series with le labels merged into any
// existing label set.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()

	families := map[string]string{} // family → type
	for name := range s.Counters {
		f, _ := splitSeries(name)
		families[f] = "counter"
	}
	for name := range s.Gauges {
		f, _ := splitSeries(name)
		families[f] = "gauge"
	}
	for name := range s.Histograms {
		f, _ := splitSeries(name)
		families[f] = "histogram"
	}
	ordered := make([]string, 0, len(families))
	for f := range families {
		ordered = append(ordered, f)
	}
	sort.Strings(ordered)

	var b strings.Builder
	for _, fam := range ordered {
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, families[fam])
		switch families[fam] {
		case "counter":
			for _, name := range sortedSeries(s.Counters, fam) {
				fmt.Fprintf(&b, "%s %d\n", name, s.Counters[name])
			}
		case "gauge":
			for _, name := range sortedSeries(s.Gauges, fam) {
				fmt.Fprintf(&b, "%s %g\n", name, s.Gauges[name])
			}
		case "histogram":
			for _, name := range sortedSeries(s.Histograms, fam) {
				h := s.Histograms[name]
				_, labels := splitSeries(name)
				var cum int64
				for i, bound := range h.Bounds {
					cum += h.Buckets[i]
					le := fmt.Sprintf(`le="%g"`, bound)
					fmt.Fprintf(&b, "%s %d\n", joinLabels(fam+"_bucket", labels, le), cum)
				}
				cum += h.Buckets[len(h.Bounds)]
				fmt.Fprintf(&b, "%s %d\n", joinLabels(fam+"_bucket", labels, `le="+Inf"`), cum)
				fmt.Fprintf(&b, "%s %g\n", joinLabels(fam+"_sum", labels), h.Sum)
				fmt.Fprintf(&b, "%s %d\n", joinLabels(fam+"_count", labels), h.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sortedSeries returns the series names of one family in sorted order.
func sortedSeries[V any](series map[string]V, family string) []string {
	var names []string
	for name := range series {
		if f, _ := splitSeries(name); f == family {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
