package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	if _, _, ok := tail(make([]float64, 19)); ok {
		t.Error("tail of 19 samples should not be reported: it would sit below the median")
	}
	xs := make([]float64, 180)
	for i := range xs {
		xs[i] = float64(180 - i) // 1..180, descending
	}
	pct, v, ok := tail(xs)
	if !ok || v != 170 || !near(pct, 100*170.0/180) {
		t.Errorf("tail(1..180) = p%.3f %v %v, want p94.444 170", pct, v, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail value, want 10", beyond)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// driver uses for the spread.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 1.1, 1.2, 5.0], n=4) == [1.025, 1.15, 4.05]
	q1, q3 = quartiles([]float64{1.0, 1.1, 1.2, 5.0})
	if !near(q1, 1.025) || !near(q3, 4.05) {
		t.Errorf("quartiles = %v, %v, want 1.025, 4.05", q1, q3)
	}
	if s := spread([]float64{10, 10.5}); !near(s, 0.5/10.25) {
		t.Errorf("spread of two runs = %v, want range/median", s)
	}
}

func TestBoundBothDirections(t *testing.T) {
	lower := metricDef{Name: "op_p50_s", Better: "lower"}
	higher := metricDef{Name: "req_per_s", Better: "higher"}
	absolute := metricDef{Name: "failed_share", Better: "lower", Absolute: true}
	for _, c := range []struct {
		def        metricDef
		bound      float64
		base, cand []float64
		want       string
	}{
		{lower, 0.10, []float64{1.0}, []float64{1.09}, verdictOK},
		{lower, 0.10, []float64{1.0}, []float64{1.11}, verdictWorse},
		{lower, 0.10, []float64{1.0}, []float64{0.5}, verdictOK},
		{higher, 0.10, []float64{100}, []float64{91}, verdictOK},
		{higher, 0.10, []float64{100}, []float64{89}, verdictWorse},
		{higher, 0.10, []float64{100}, []float64{150}, verdictOK},
		{absolute, 0, []float64{0}, []float64{0}, verdictOK},
		{absolute, 0, []float64{0}, []float64{0.01}, verdictWorse},
		{lower, 0.10, nil, []float64{1}, verdictUnresolved},
		// Within the bound but noisier than the bound: unresolved ...
		{lower, 0.10, []float64{1.0, 1.3}, []float64{1.05, 1.2}, verdictUnresolved},
		// ... unless every candidate run beats every base run.
		{lower, 0.10, []float64{1.0, 1.3}, []float64{0.7, 0.9}, verdictOK},
	} {
		if got := judge(c.def, c.bound, c.base, c.cand); got != c.want {
			t.Errorf("judge(%s, %v, %v, %v) = %s, want %s", c.def.Name, c.bound, c.base, c.cand, got, c.want)
		}
	}
}

func TestCompareDigestAndApplicability(t *testing.T) {
	mk := func(w string, seed int64, digest string, op float64) *result {
		return &result{Workload: w, Seed: seed, OutputDigest: digest,
			EndToEnd: map[string]metricValue{"op_p50_s": {op, "s"}, "failed_share": {0, "ratio"}}}
	}
	bounds := map[string]float64{"op_p50_s": 0.10}
	rows := compareResults(
		[]*result{mk("cli-fasta", 1, "aa", 1), mk("cli-fasta", 2, "bb", 1)},
		[]*result{mk("cli-fasta", 1, "aa", 1.02), mk("cli-fasta", 2, "XX", 1.02)}, bounds)
	got := map[string]string{}
	for _, r := range rows {
		got[r.Metric] = r.Verdict
	}
	if got["op_p50_s"] != verdictOK || got["output_digest[seed=1]"] != verdictOK || got["output_digest[seed=2]"] != verdictWorse {
		t.Errorf("verdicts: %v", got)
	}
	if got["setup_s"] != verdictUnresolved {
		t.Errorf("a metric missing on both sides is %q, want unresolved", got["setup_s"])
	}
	if _, ok := got["model_t8_sycl_s"]; ok {
		t.Error("model_t8_sycl_s does not apply to cli-fasta and must have no row")
	}
}

func TestSeededGenerator(t *testing.T) {
	a, b := guidesFor(1, "daemon-scan", 50), guidesFor(1, "daemon-scan", 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different guides")
	}
	if reflect.DeepEqual(a, guidesFor(2, "daemon-scan", 50)) {
		t.Error("different seeds gave the same guides")
	}
	if reflect.DeepEqual(a, guidesFor(1, "daemon-dense", 50)) {
		t.Error("different families gave the same guides")
	}
	guide := regexp.MustCompile(`^[ACGT]{20}NNN$`)
	for _, g := range a {
		if !guide.MatchString(g) || strings.Count(g, "A") != 5 || strings.Count(g, "C") != 5 || strings.Count(g, "G") != 5 {
			t.Fatalf("guide %q is not a 20-mer of five each of A, C, G, T + NNN", g)
		}
	}
	// Pinned bytes: the generator must not drift with the Go release.
	if got := guidesFor(1, "cli", 1)[0]; got != "CAAACACTCCGTTGGGTATGNNN" {
		t.Errorf("guidesFor(1, cli)[0] = %s; the seeded stream changed", got)
	}
	body := string(searchBody(a[0], 5))
	if body != string(searchBody(a[0], 5)) || !strings.Contains(body, a[0]) || !json.Valid([]byte(body)) {
		t.Errorf("request body %s", body)
	}
	s1, s2 := sampleIndexes(1, "daemon-scan", 180, 8), sampleIndexes(1, "daemon-scan", 180, 8)
	if !reflect.DeepEqual(s1, s2) || len(s1) != 8 {
		t.Errorf("sample %v vs %v", s1, s2)
	}
	if w, _ := findWorkload("daemon-scan"); w.ops(10) != 90 || w.ops(1) != 9 {
		t.Errorf("ops(10) = %d, ops(1) = %d", w.ops(10), w.ops(1))
	}
}

func TestNDJSONTrailer(t *testing.T) {
	body := []byte(`{"guide":"ACGTNNN","query":0,"seq":"chr1","pos":7,"dir":"-","mismatches":2,"site":"acGTTGG"}
{"guide":"ACGTNNN","query":0,"seq":"chr2","pos":9,"dir":"+","mismatches":0,"site":"ACGTAGG"}
{"done":true,"hits":2,"degraded":false,"request_id":"a field a later daemon adds"}
`)
	lines, tr, err := splitNDJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	if !*tr.Done || *tr.Hits != 2 || tr.Degraded || strings.Count(string(lines), "\n") != 2 {
		t.Errorf("trailer %+v over %q", tr, lines)
	}
	hits, err := parseNDJSONHits(lines)
	want := []hitKey{{"ACGTNNN", "chr1", 7, '-', 2}, {"ACGTNNN", "chr2", 9, '+', 0}}
	if err != nil || !reflect.DeepEqual(hits, want) {
		t.Errorf("hits %v, %v", hits, err)
	}

	lines, tr, err = splitNDJSON([]byte(`{"done":true,"hits":0,"degraded":true}` + "\n"))
	if err != nil || len(lines) != 0 || !tr.Degraded {
		t.Errorf("hitless reply: %q %+v %v", lines, tr, err)
	}
	for _, bad := range []string{"", `{"guide":"A","seq":"chr1","pos":1,"dir":"+","mismatches":0}` + "\n", "not json\n"} {
		if _, _, err := splitNDJSON([]byte(bad)); err == nil {
			t.Errorf("splitNDJSON(%q) found a trailer", bad)
		}
	}
}

func TestCLIHits(t *testing.T) {
	hits, err := parseCLIHits([]byte("ACGTNNN\tchr1\t12\tacGTTGG\t-\t2\n"))
	if err != nil || !reflect.DeepEqual(hits, []hitKey{{"ACGTNNN", "chr1", 12, '-', 2}}) {
		t.Errorf("hits %v, %v", hits, err)
	}
	if _, err := parseCLIHits([]byte("ACGTNNN\tchr1\ttwelve\tacGTTGG\t-\t2\n")); err == nil {
		t.Error("malformed position accepted")
	}
	want := map[hitKey]bool{{"G", "chr1", 1, '+', 0}: true, {"G", "chr1", 5, '-', 1}: true}
	if d := sameHits([]hitKey{{"G", "chr1", 5, '-', 1}, {"G", "chr1", 1, '+', 0}}, want); d != "" {
		t.Errorf("equal sets differ: %s", d)
	}
	for _, got := range [][]hitKey{
		{{"G", "chr1", 1, '+', 0}},
		{{"G", "chr1", 1, '+', 0}, {"G", "chr1", 5, '-', 1}, {"G", "chr1", 9, '+', 0}},
		{{"G", "chr1", 1, '+', 0}, {"G", "chr1", 1, '+', 0}},
	} {
		if sameHits(got, want) == "" {
			t.Errorf("sameHits accepted %v", got)
		}
	}
}

func TestTableCSV(t *testing.T) {
	t8 := "dataset,device,opencl_s,sycl_s,speedup\nhg19,RVII,53.573,44.306,1.209\nhg38,MI100,40.861,34.277,1.192\n"
	rows, err := parseTableCSV([]byte(t8), "opencl_s", "sycl_s")
	want := []tableRow{{"hg19", "RVII", 53.573, 44.306, 1.209}, {"hg38", "MI100", 40.861, 34.277, 1.192}}
	if err != nil || !reflect.DeepEqual(rows, want) {
		t.Errorf("table 8: %v, %v", rows, err)
	}
	// Columns are found by name, wherever they are.
	t9 := "device,dataset,extra,opt_s,base_s,speedup\nMI60,hg19,x,36.817,42.548,1.156\n"
	rows, err = parseTableCSV([]byte(t9), "base_s", "opt_s")
	if err != nil || !reflect.DeepEqual(rows, []tableRow{{"hg19", "MI60", 42.548, 36.817, 1.156}}) {
		t.Errorf("table 9: %v, %v", rows, err)
	}
	if _, err := parseTableCSV([]byte(t8), "base_s", "opt_s"); err == nil {
		t.Error("table 8 parsed as table 9")
	}
	if bad := t8Shape(want); !strings.Contains(bad, "2 rows") {
		t.Errorf("t8Shape on two rows: %q", bad)
	}
	six := make([]tableRow, 6)
	for i := range six {
		six[i] = tableRow{"hg19", "RVII", 50, 40, 1.25}
	}
	if bad := t8Shape(six); bad != "" {
		t.Errorf("t8Shape: %s", bad)
	}
	six[3].B = 51
	if t8Shape(six) == "" {
		t.Error("t8Shape accepted a cell where SYCL is slower than OpenCL")
	}
}

func TestPrometheusText(t *testing.T) {
	before := parseProm([]byte(`# TYPE casoffinderd_batches_total counter
casoffinderd_batches_total 10
casoffinderd_requests_total{status="ok"} 20
casoffinder_kernel_launch_seconds_sum{kernel="finder"} 1.5
casoffinder_kernel_launch_seconds_sum{kernel="comparer_opt3"} 0.5
`))
	after := parseProm([]byte(`casoffinderd_batches_total 55
casoffinderd_requests_total{status="ok"} 110
casoffinderd_requests_total{status="rejected"} 1
casoffinder_kernel_launch_seconds_sum{kernel="finder"} 2.5
casoffinder_kernel_launch_seconds_sum{kernel="comparer_opt3"} 1
casoffinderd_stream_seconds_sum 9.25
garbage line without a number
`))
	if d, ok := promDelta(before, after, "casoffinderd_batches_total"); !ok || d != 45 {
		t.Errorf("batches delta %v %v", d, ok)
	}
	if d, ok := promDelta(before, after, "casoffinder_kernel_launch_seconds_sum"); !ok || !near(d, 1.5) {
		t.Errorf("labelled family delta %v %v", d, ok)
	}
	if v, ok := after.family(`casoffinderd_requests_total{status="ok"}`); !ok || v != 110 {
		t.Errorf("one labelled series %v %v", v, ok)
	}
	// A family first seen inside the window counts from zero.
	if d, ok := promDelta(before, after, "casoffinderd_stream_seconds_sum"); !ok || d != 9.25 {
		t.Errorf("new family delta %v %v", d, ok)
	}
	// A family the page does not have is reported as missing, not as 0, so
	// that the metric is omitted rather than wrong.
	if _, ok := promDelta(before, after, "casoffinderd_queue_seconds_sum"); ok {
		t.Error("missing family reported as present")
	}
	if _, ok := after.family("casoffinderd_batches"); ok {
		t.Error("a name prefix matched a longer family")
	}

	p := &probe{m: &measurement{w: workloads[2], prom: []promWindow{{before, after}}, attempted: 90}, out: map[string]metricValue{}}
	p.daemonCounters()
	if v, ok := p.out["serve.guides_per_pass"]; !ok || v.Value != 2 {
		t.Errorf("guides_per_pass %v %v", v, ok)
	}
	if _, ok := p.out["serve.queue_mean_ms"]; ok {
		t.Error("serve.queue_mean_ms reported without its family")
	}
}

func TestRusage(t *testing.T) {
	ru := &syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 1, Usec: 250000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 750000},
		Maxrss: 48 * 1024,
	}
	if u := rusageToUsage(ru, "linux"); !near(u.CPUSeconds, 2) || !near(u.PeakRSSMB, 48) {
		t.Errorf("linux usage %+v", u)
	}
	ru.Maxrss = 48 << 20
	if u := rusageToUsage(ru, "darwin"); !near(u.PeakRSSMB, 48) {
		t.Errorf("darwin usage %+v", u)
	}
}

func TestProcStatus(t *testing.T) {
	status := []byte("Name:\tcasoffinder\nVmPeak:\t 1234568 kB\nVmHWM:\t   49152 kB\nVmRSS:\t   24576 kB\nThreads:\t5\n")
	if mb, ok := parseStatusMB(status, "VmHWM"); !ok || mb != 48 {
		t.Errorf("VmHWM %v %v", mb, ok)
	}
	if mb, ok := parseStatusMB(status, "VmRSS"); !ok || mb != 24 {
		t.Errorf("VmRSS %v %v", mb, ok)
	}
	if _, ok := parseStatusMB([]byte("Name:\tzombie\nState:\tZ\n"), "VmHWM"); ok {
		t.Error("a status page without VmHWM gave a value")
	}
}

func TestListenAddr(t *testing.T) {
	if a, ok := listenAddr("casoffinderd: listening on 127.0.0.1:34455 (genomes: g)"); !ok || a != "127.0.0.1:34455" {
		t.Errorf("addr %q %v", a, ok)
	}
	if _, ok := listenAddr("casoffinderd: artifact g: 24 sequences mapped from g.cart"); ok {
		t.Error("found an address in another line")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("search.stream", "search", 0, -1, at(0), at(100))
	// Two workers overlap on 30..50: the union covers 10..70, not 20+40.
	tr.adopt(root, 0, []interval{
		{name: "scan", layer: "pipeline", track: "cpu/worker0", start: at(10), end: at(50)},
		{name: "scan", layer: "pipeline", track: "cpu/worker1", start: at(30), end: at(70)},
		{name: "find", layer: "pipeline", track: "cpu/worker0", start: at(10), end: at(20)},
	})
	if tr.spans[2].Name != "find" || tr.spans[2].Parent != tr.spans[1].ID || tr.spans[3].Parent != root {
		t.Errorf("find was not nested under its worker's scan: %+v", tr.spans)
	}
	l := tr.layers()
	if !near(l["search"].SpanS, 0.100) || !near(l["search"].SelfS, 0.040) {
		t.Errorf("search layer %+v, want span 0.1 self 0.04", l["search"])
	}
	if !near(l["pipeline"].SpanS, 0.090) || !near(l["pipeline"].SelfS, 0.080) {
		t.Errorf("pipeline layer %+v, want span 0.09 self 0.08", l["pipeline"])
	}
	if d := tr.named("scan", 0); len(d) != 2 || !near(sum(d), 0.080) {
		t.Errorf("named scan %v", d)
	}
	if d := tr.named("scan", 1); len(d) != 0 {
		t.Errorf("op filter let %v through", d)
	}
}

func TestDigest(t *testing.T) {
	a := outputDigest([]string{"x", "y", "failed"})
	if a != outputDigest([]string{"failed", "y", "x"}) {
		t.Error("digest depends on op order")
	}
	if a == outputDigest([]string{"x", "y", "y"}) {
		t.Error("digest ignores a failed op")
	}
}

// manifest is BENCHMARK.json as the driver's contract fixes it.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// registryManifest is the manifest the registry defines.
func registryManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range driverEndToEnd() {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range driverPerLayer() {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// The registry must fit the driver's contract, and BENCHMARK.json must say
// exactly what the registry says.
func TestManifestMatchesRegistry(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the contract", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
		for _, w := range d.On {
			if _, err := findWorkload(w); err != nil {
				t.Errorf("metric %s: %v", d.Name, err)
			}
		}
	}
	if n := len(driverPerLayer()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1..128", n)
	}
	var setup *metricDef
	for _, d := range driverEndToEnd() {
		if d.Bound <= 0 || d.Bound > 0.25 || d.On != nil {
			t.Errorf("driver end-to-end metric %+v needs a bound in (0, 0.25] and every workload", d)
		}
		if d.Name == "setup_s" {
			d := d
			setup = &d
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s: %+v", setup)
	}
	for _, d := range driverEndToEnd() {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s breaks the contract", w.Name)
		}
	}

	want, err := json.MarshalIndent(registryManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != string(want) {
		t.Errorf("BENCHMARK.json does not match the registry; it should read:\n%s", want)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

// The driver's line carries every metric of the list for its trace mode,
// whatever the workload produced.
func TestDriverLine(t *testing.T) {
	r := &result{Workload: "cli-fasta", Correct: true, Attempted: 18,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{"probe.op_s": {0.5, "s"}}}
	if _, err := r.driverLine(false); err == nil {
		t.Error("an untraced line without its end-to-end metrics was accepted")
	}
	for _, d := range driverEndToEnd() {
		r.EndToEnd[d.Name] = metricValue{1.5, d.Unit}
	}
	r.EndToEnd["failed_share"] = metricValue{0, "ratio"}
	for _, traced := range []bool{false, true} {
		line, err := r.driverLine(traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(line, &got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
			t.Fatalf("line %s: %v", line, err)
		}
		defs := driverEndToEnd()
		if traced {
			defs = driverPerLayer()
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(got.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := got.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s is %+v %v", traced, d.Name, v, ok)
			}
		}
	}
}
