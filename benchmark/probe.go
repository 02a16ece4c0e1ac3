package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"casoffinder/internal/bench"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/isa"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
	"casoffinder/internal/serve"
	"casoffinder/internal/tune"
)

// baseComparer is kernels.Base, the paper's unoptimised comparer, which is
// also the zero value the probe's engines run.
const baseComparer = 0

// paperT8 is the paper's measured Table VIII (seconds), as EXPERIMENTS.md
// records it, keyed dataset/device; t8_mape is stated against it.
var paperT8 = map[string][2]float64{ // {OpenCL, SYCL}
	"hg19/RVII": {54, 48}, "hg19/MI60": {51, 50}, "hg19/MI100": {49, 41},
	"hg38/RVII": {71, 61}, "hg38/MI60": {63, 63}, "hg38/MI100": {61, 58},
}

// probe is the traced pass of one workload: it replays the workload's inputs
// in-process through the frozen probe surface, in the order the binaries
// call it, and derives the per-layer metrics. Where probe and binary
// disagree the binary's end-to-end number is authoritative.
type probe struct {
	h  *harness
	m  *measurement
	tr *tracer
	// out collects the per-layer metrics.
	out map[string]metricValue
	// tracedOps is how many ops the engine's stage and launch spans are
	// summed over, stageOp the one op they are restricted to (anyOp: none),
	// and engineRuns how many simulator engine runs the launch spans cover:
	// one on sim-paper, the passes served on daemon-sycl.
	tracedOps  float64
	stageOp    int
	engineRuns float64
}

// set records a per-layer metric. The registry says which workloads report
// which metric; reporting one elsewhere is a bug in the probe.
func (p *probe) set(name string, v float64) {
	if def, _ := findMetric(name); !def.appliesTo(p.m.w.Name) {
		panic("benchmark: " + name + " is not registered on " + p.m.w.Name)
	}
	set(p.out, name, v)
}

// span times fn as one span.
func (p *probe) span(name, layer string, op, parent int, fn func() error) (float64, error) {
	id := p.tr.start(name, layer, op, parent)
	err := fn()
	return p.tr.end(id), err
}

// allocDelta runs fn and reports the heap objects and bytes it allocated,
// process-wide: the probe runs nothing else meanwhile.
func allocDelta(fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// runProbe is the traced pass. It never fails the run over a metric it
// cannot produce; an error here is a broken probe surface.
func runProbe(h *harness, m *measurement) (map[string]metricValue, *tracer, error) {
	p := &probe{h: h, m: m, tr: newTracer(), out: map[string]metricValue{}, stageOp: anyOp}
	var err error
	switch m.w.Kind {
	case kindCLI:
		if err = p.genomeProbes(); err == nil {
			err = p.cliOps()
		}
	case kindDaemon:
		if m.w.Engine == "sycl" {
			p.deviceProbes() // first, while the ISA and tuner caches are cold
		}
		if err = p.genomeProbes(); err == nil {
			err = p.daemonOps()
		}
		p.daemonCounters()
	case kindSim:
		p.deviceProbes()
		if err = p.simRuns(); err == nil {
			err = p.modelProbes()
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	p.spanMetrics()
	if m.w.Kind != kindSim {
		p.set("bench.oracle_s", m.oracleS)
	}
	p.set("bench.samples", float64(len(m.opWall)))
	return p.out, p.tr, nil
}

// genomeProbes times the genome layer on the workload's own genome.
func (p *probe) genomeProbes() error {
	w := p.m.w
	prof := genome.HG38Like(w.Bases)
	if p.m.seed != 0 {
		prof.Seed = p.m.seed
	}
	if _, err := p.span("genome.generate", "genome", -1, -1, func() error {
		_, err := genome.Generate(prof)
		return err
	}); err != nil {
		return err
	}
	var asm *genome.Assembly
	if _, err := p.span("genome.load_fasta", "genome", -1, -1, func() (err error) {
		asm, err = genome.LoadDir(p.m.genomeDir)
		return err
	}); err != nil {
		return err
	}
	cart := filepath.Join(p.h.work, "probe.cart")
	if _, err := p.span("genome.build_cart", "genome", -1, -1, func() error {
		art, err := search.BuildArtifact(asm, pamPattern)
		if err != nil {
			return err
		}
		return art.WriteFile(cart)
	}); err != nil {
		return err
	}
	if st, err := os.Stat(cart); err == nil {
		p.set("genome.cart_bytes", float64(st.Size()))
	}
	if _, err := p.span("genome.load_cart", "genome", -1, -1, func() error {
		art, err := genome.LoadArtifact(cart)
		if err != nil {
			return err
		}
		art.Assembly()
		return art.Close()
	}); err != nil {
		return err
	}
	return p.chunkWalk(asm)
}

func (p *probe) chunkWalk(asm *genome.Assembly) error {
	_, err := p.span("genome.chunk_walk", "genome", -1, -1, func() error {
		c := &genome.Chunker{ChunkBytes: search.DefaultChunkBytes, PatternLen: len(pamPattern)}
		return c.Each(asm, func(*genome.Chunk) error { return nil })
	})
	return err
}

// timeWrites renders hits with write until at least minWrites calls were
// timed and returns nanoseconds per hit.
func timeWrites(req *search.Request, hits []search.Hit, write func(io.Writer, *search.Request, search.Hit) error) (float64, bool) {
	const minWrites = 20000
	if len(hits) == 0 {
		return 0, false
	}
	bw := bufio.NewWriter(io.Discard)
	n := 0
	t0 := time.Now()
	for n < minWrites {
		for _, h := range hits {
			if err := write(bw, req, h); err != nil {
				return 0, false
			}
		}
		n += len(hits)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), true
}

func (p *probe) writeProbes(req *search.Request, hits []search.Hit) {
	if p.m.w.Kind == kindCLI {
		if ns, ok := timeWrites(req, hits, search.WriteHit); ok {
			p.set("output.write_hit_ns", ns)
		}
	}
	if ns, ok := timeWrites(req, hits, search.WriteHitJSON); ok {
		p.set("output.write_hit_json_ns", ns)
	}
}

// cliOps replays the CLI op in-process: ParseInput, LoadDir or LoadArtifact,
// Compile, then the CPU engine's Stream writing hits as casoffinder does.
func (p *probe) cliOps() error {
	w := p.m.w
	var opS, streamS, emitS, allocN, allocB, hitsN []float64
	var lastReq *search.Request
	var lastHits []search.Hit
	for op := 0; op < w.TracedOps; op++ {
		root := p.tr.start("cli.op", "cli", op, -1)
		var in *search.Input
		if _, err := p.span("input.parse", "input", op, root, func() error {
			f, err := os.Open(p.m.inputPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in, err = search.ParseInput(f)
			return err
		}); err != nil {
			return err
		}
		var asm *genome.Assembly
		var art *genome.Artifact
		load := func() (err error) {
			if !w.Cart {
				asm, err = genome.LoadDir(in.GenomeDir)
				return err
			}
			if art, err = genome.LoadArtifact(p.m.cartPath); err == nil {
				asm = art.Assembly()
			}
			return err
		}
		name := "genome.load_fasta"
		if w.Cart {
			name = "genome.load_cart"
		}
		if _, err := p.span(name, "genome", op, root, load); err != nil {
			return err
		}
		if _, err := p.span("pipeline.compile", "pipeline", op, root, func() error {
			_, err := pipeline.Compile(&in.Request)
			return err
		}); err != nil {
			return err
		}

		eng := &search.CPU{Trace: obs.NewTracer()}
		out, err := os.Create(filepath.Join(p.h.work, "probe.out"))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(out)
		var writes []interval
		var hits []search.Hit
		stream := p.tr.start("search.stream", "search", op, root)
		var serr error
		n, b := allocDelta(func() {
			serr = eng.Stream(context.Background(), asm, &in.Request, func(h search.Hit) error {
				t0 := time.Now()
				err := search.WriteHit(bw, &in.Request, h)
				writes = append(writes, interval{name: "output.write_hit", layer: "output", track: "cpu/collect", start: t0, end: time.Now()})
				hits = append(hits, h)
				return err
			})
		})
		if ferr := bw.Flush(); serr == nil {
			serr = ferr
		}
		streamS = append(streamS, p.tr.end(stream))
		out.Close()
		if art != nil {
			art.Close()
		}
		opS = append(opS, p.tr.end(root))
		if serr != nil {
			return serr
		}
		p.tr.adopt(stream, op, append(engineIntervals(eng.Trace.Spans()), writes...))
		var e float64
		for _, iv := range writes {
			e += iv.end.Sub(iv.start).Seconds()
		}
		emitS, allocN, allocB = append(emitS, e), append(allocN, n), append(allocB, b)
		hitsN = append(hitsN, float64(len(hits)))
		lastReq, lastHits = &in.Request, hits
	}
	p.tracedOps = float64(w.TracedOps)
	p.set("probe.op_s", median(opS))
	p.set("cli.exec_overhead_s", median(p.m.opWall)-median(opS))
	p.set("search.stream_s", median(streamS))
	p.set("search.emit_cb_s", median(emitS))
	p.set("search.hits", median(hitsN))
	p.set("search.scan_mbases_per_s", float64(w.Bases)/1e6/median(streamS))
	p.set("search.allocs_per_op", median(allocN))
	p.set("search.alloc_mb_per_op", median(allocB)/(1<<20))
	p.writeProbes(lastReq, lastHits)
	return nil
}

// pass is one Engine.Stream call the daemon probe's decorator observed.
type pass struct {
	start, firstEmit, end time.Time
	emit                  time.Duration // time inside serve's emit callbacks
	hits                  int
}

// timedEngine decorates the engine handed to serve.New, so that the pass
// (scan) and what serve does per hit (render, flush) can be told apart from
// outside.
type timedEngine struct {
	search.Engine
	mu     sync.Mutex
	passes []pass
	sample []search.Hit // hits of one pass, for the render probes
}

func (t *timedEngine) Stream(ctx context.Context, asm *genome.Assembly, req *search.Request, emit func(search.Hit) error) error {
	ps := pass{start: time.Now()}
	var hits []search.Hit
	err := t.Engine.Stream(ctx, asm, req, func(h search.Hit) error {
		t0 := time.Now()
		if ps.hits == 0 {
			ps.firstEmit = t0
		}
		err := emit(h)
		ps.emit += time.Since(t0)
		ps.hits++
		if len(hits) < 1000 {
			hits = append(hits, h)
		}
		return err
	})
	ps.end = time.Now()
	t.mu.Lock()
	t.passes = append(t.passes, ps)
	if len(hits) > len(t.sample) {
		t.sample = hits
	}
	t.mu.Unlock()
	return err
}

// daemonOps replays the first TracedOps measured requests against an
// in-process serve.Server built the way cmd/casoffinderd builds it.
func (p *probe) daemonOps() error {
	w := p.m.w
	art, err := genome.LoadArtifact(p.m.cartPath)
	if err != nil {
		return err
	}
	defer art.Close()
	engTrace := obs.NewTracer()
	var (
		inner     search.Engine
		res       *pipeline.Resilience
		profiler  search.Profiler
		serialize bool
	)
	switch w.Engine {
	case "cpu":
		inner = &search.CPU{Trace: engTrace}
	default:
		spec, err := device.ByName(simDevice)
		if err != nil {
			return err
		}
		// As casoffinderd does: always resilient, passes serialized.
		res = &pipeline.Resilience{}
		e := &search.SimSYCL{Device: gpu.New(spec), Resilience: res, Trace: engTrace}
		inner, profiler, serialize = e, e, true
	}
	eng := &timedEngine{Engine: inner}
	srv, err := serve.New(serve.Config{
		Engine:          eng,
		SerializePasses: serialize,
		Genomes:         map[string]*genome.Assembly{"g": art.Assembly()},
	})
	if err != nil {
		return err
	}
	if res != nil {
		res.OnReport = srv.ReportSink()
	}
	if err := srv.Warmup(context.Background()); err != nil {
		return err
	}
	srv.SetReady(true)
	eng.passes, eng.sample = nil, nil
	warmSpans := engTrace.Len()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := newClient()
	defer client.CloseIdleConnections()

	stride := len(p.m.guides) / daemonClients // the measured sequence's layout
	perClient := w.TracedOps / daemonClients
	if n := stride - w.WarmOps; perClient > n {
		perClient = n // a short -seconds measured fewer requests than that
	}
	type traced struct {
		id         int
		sent, done time.Time
		req        request
	}
	reqs := make([]traced, daemonClients*perClient)
	decodeUS := make([]float64, len(reqs))
	allocN, allocB := allocDelta(func() {
		closedLoop(0, perClient, func(c, i int, buf *bytes.Buffer) {
			op := c*perClient + i
			body := searchBody(p.m.guides[c*stride+w.WarmOps+i], w.Mismatches)
			t0 := time.Now()
			serve.DecodeRequest(bytes.NewReader(body), serve.Limits{}) // the request itself reports a bad body
			decodeUS[op] = float64(time.Since(t0).Nanoseconds()) / 1e3
			id := p.tr.start("serve.request", "serve", op, -1)
			sent := time.Now()
			r := doSearch(client, ts.URL+"/search", body, buf, false)
			p.tr.end(id)
			reqs[op] = traced{id: id, sent: sent, done: time.Now(), req: r}
		})
	})
	for op, r := range reqs {
		if r.req.err != nil {
			return fmt.Errorf("traced request %d: %w", op, r.req.err)
		}
	}

	// A request's pass is the last one that started after it was sent and
	// ended before its trailer arrived; coalesced members share one. The
	// pass span is parented to the first member that claims it.
	var latS, overheadS, passS, ttfhS []float64
	var emitS float64
	var hits int
	passSpan := make([]int, len(eng.passes))
	for i := range passSpan {
		passSpan[i] = -1
	}
	engIvs := engineIntervals(engTrace.Spans()[warmSpans:])
	for op, r := range reqs {
		latS = append(latS, r.req.wall.Seconds())
		for i := len(eng.passes) - 1; i >= 0; i-- {
			ps := eng.passes[i]
			if ps.start.Before(r.sent) || ps.end.After(r.done) {
				continue
			}
			overheadS = append(overheadS, (r.req.wall - ps.end.Sub(ps.start)).Seconds())
			if passSpan[i] < 0 {
				id := p.tr.add("search.stream", "search", op, r.id, ps.start, ps.end)
				passSpan[i] = id
				var own []interval
				for _, iv := range engIvs {
					if !iv.start.Before(ps.start) && !iv.end.After(ps.end) {
						own = append(own, iv)
					}
				}
				p.tr.adopt(id, op, own)
			}
			break
		}
	}
	for _, ps := range eng.passes {
		passS = append(passS, ps.end.Sub(ps.start).Seconds())
		if ps.hits > 0 {
			ttfhS = append(ttfhS, ps.firstEmit.Sub(ps.start).Seconds())
		}
		emitS += ps.emit.Seconds()
		hits += ps.hits
	}
	n := float64(len(reqs))
	p.tracedOps = n
	p.set("probe.op_s", median(latS))
	p.set("serve.decode_us", median(decodeUS))
	p.set("serve.pass_busy_s", sum(passS)/n)
	p.set("serve.pass_p50_ms", median(passS)*1e3)
	if len(ttfhS) > 0 {
		p.set("serve.pass_ttfh_p50_ms", median(ttfhS)*1e3)
	}
	p.set("serve.emit_cb_s", emitS/n)
	if hits > 0 {
		p.set("serve.emit_us_per_hit", emitS/float64(hits)*1e6)
	}
	if len(overheadS) > 0 {
		p.set("serve.overhead_p50_ms", median(overheadS)*1e3)
	}
	p.set("search.hits", float64(hits)/n)
	p.set("search.scan_mbases_per_s", float64(w.Bases)/1e6/median(passS))
	p.set("search.allocs_per_op", allocN/n)
	p.set("search.alloc_mb_per_op", allocB/(1<<20)/n)
	req := &search.Request{Pattern: pamPattern, Queries: []search.Query{{Guide: p.m.guides[0], MaxMismatches: w.Mismatches}}}
	if _, err := p.span("pipeline.compile", "pipeline", -1, -1, func() error {
		_, err := pipeline.Compile(req)
		return err
	}); err != nil {
		return err
	}
	p.writeProbes(req, zeroQuery(eng.sample))
	if profiler != nil {
		p.profileMetrics(profiler.LastProfile())
		p.engineRuns = float64(len(eng.passes))
	}
	return nil
}

// zeroQuery re-indexes sampled hits onto a single-guide request: a coalesced
// pass numbers its members' guides 0..n-1.
func zeroQuery(hits []search.Hit) []search.Hit {
	out := make([]search.Hit, len(hits))
	for i, h := range hits {
		h.QueryIndex = 0
		out[i] = h
	}
	return out
}

// daemonCounters derives the metrics that come from the real daemon: its
// /metrics page across the measured window and the load generator's own
// counts. Per-request figures divide by the requests of the window.
func (p *probe) daemonCounters() {
	m := p.m
	if pct, v, ok := tail(m.opWall); ok {
		p.set("serve.latency_tail_ms", v*1e3)
		p.set("serve.latency_tail_pct", pct)
	}
	if _, v, ok := tail(m.opTTFH); ok {
		p.set("serve.ttfh_tail_ms", v*1e3)
	}
	if len(m.opWall) > 0 {
		p.set("serve.hits_per_req", float64(m.hitsTotal)/float64(len(m.opWall)))
	}
	p.set("serve.http_non200", float64(m.non200))
	p.set("serve.degraded", float64(m.degradedReqs))

	n := float64(m.attempted)
	// A family counts if any round's later page has it; its delta is summed
	// over the rounds' windows.
	delta := func(family string) (total float64, ok bool) {
		for _, w := range m.prom {
			if d, has := promDelta(w.before, w.after, family); has {
				total, ok = total+d, true
			}
		}
		return total, ok
	}
	perRequest := func(metric, family string) {
		if d, ok := delta(family); ok && n > 0 {
			p.set(metric, d/n)
		}
	}
	mean := func(metric, hist string) {
		s, ok1 := delta(hist + "_sum")
		c, ok2 := delta(hist + "_count")
		if ok1 && ok2 && c > 0 {
			p.set(metric, s/c*1e3)
		}
	}
	if passes, ok := delta("casoffinderd_batches_total"); ok {
		p.set("serve.passes", passes)
		if served, ok := delta(`casoffinderd_requests_total{status="ok"}`); ok && passes > 0 {
			p.set("serve.guides_per_pass", served*float64(m.w.Guides)/passes)
		}
	}
	mean("serve.stream_mean_ms", "casoffinderd_stream_seconds")
	mean("serve.queue_mean_ms", "casoffinderd_queue_seconds")
	perRequest("pipeline.scan_busy_s", "casoffinder_scan_seconds_sum")
	perRequest("pipeline.chunks", "casoffinder_pipeline_chunks_total")
	if m.w.Engine != "cpu" {
		perRequest("gpu.launch_busy_s", "casoffinder_kernel_launch_seconds_sum")
		perRequest("gpu.launches", "casoffinder_kernel_launches_total")
	}
}

// deviceProbes times the cold ISA compile and tuner selection; both memoize
// process-wide, so they are measured once and reported on every workload of
// the process.
var deviceProbeOnce struct {
	sync.Once
	compileS, selectS float64
	metrics           isa.Metrics
	ok                bool
}

func (p *probe) deviceProbes() {
	d := &deviceProbeOnce
	d.Do(func() {
		spec, err := device.ByName(simDevice)
		if err != nil {
			return
		}
		t0 := time.Now()
		d.metrics = isa.ComparerMetrics(baseComparer, spec, len(pamPattern))
		d.compileS = time.Since(t0).Seconds()
		t0 = time.Now()
		if _, err := tune.Select(tune.Config{Spec: spec}); err != nil {
			return
		}
		d.selectS = time.Since(t0).Seconds()
		d.ok = true
	})
	if !d.ok {
		return
	}
	p.set("isa.compile_s", d.compileS)
	p.set("tune.select_s", d.selectS)
	p.set("isa.comparer_base.code_bytes", float64(d.metrics.CodeBytes))
	p.set("isa.comparer_base.vgprs", float64(d.metrics.VGPRs))
	p.set("isa.comparer_base.occupancy", float64(d.metrics.Occupancy))
}

// simRuns runs both simulated host programs once on the hg38-like assembly
// at the paper-table scale.
func (p *probe) simRuns() error {
	wl := bench.HG38Workload(simScale)
	var asm *genome.Assembly
	if _, err := p.span("genome.generate", "genome", -1, -1, func() (err error) {
		asm, err = genome.Generate(wl.Profile)
		return err
	}); err != nil {
		return err
	}
	if err := p.chunkWalk(asm); err != nil {
		return err
	}
	spec, err := device.ByName(simDevice)
	if err != nil {
		return err
	}
	clTrace, syclTrace := obs.NewTracer(), obs.NewTracer()
	cl := &search.SimCL{Device: gpu.New(spec), Trace: clTrace}
	sy := &search.SimSYCL{Device: gpu.New(spec), Trace: syclTrace}
	for op, run := range []struct {
		name  string
		eng   search.Engine
		trace *obs.Tracer
	}{{"simcl", cl, clTrace}, {"simsycl", sy, syclTrace}} {
		id := p.tr.start("search."+run.name+".run", "search", op, -1)
		var rerr error
		n, _ := allocDelta(func() { _, rerr = run.eng.Run(asm, wl.Request) })
		s := p.tr.end(id)
		if rerr != nil {
			return rerr
		}
		p.tr.adopt(id, op, engineIntervals(run.trace.Spans()))
		p.set("search."+run.name+".run_s", s)
		p.set("search."+run.name+".allocs_per_run", n)
	}
	p.profileMetrics(sy.LastProfile())
	// Both host programs were traced; the stage and launch sums describe the
	// SYCL run (op 1), the one the Profile counts come from.
	p.tracedOps, p.stageOp, p.engineRuns = 1, 1, 1
	return nil
}

// kernelCounters are the gpu.Stats fields reported per simulated kernel, under
// the snake_case name the metric carries.
var kernelCounters = []struct {
	name string
	get  func(*gpu.Stats) int64
}{
	{"work_groups", func(s *gpu.Stats) int64 { return s.WorkGroups }},
	{"work_items", func(s *gpu.Stats) int64 { return s.WorkItems }},
	{"global_load_ops", func(s *gpu.Stats) int64 { return s.GlobalLoadOps }},
	{"global_load_bytes", func(s *gpu.Stats) int64 { return s.GlobalLoadBytes }},
	{"local_load_ops", func(s *gpu.Stats) int64 { return s.LocalLoadOps }},
	{"alu_ops", func(s *gpu.Stats) int64 { return s.ALUOps }},
	{"atomic_ops", func(s *gpu.Stats) int64 { return s.AtomicOps }},
	{"barriers", func(s *gpu.Stats) int64 { return s.Barriers }},
}

// profileMetrics reports the computed operation counts of the simulated
// kernels and the arena and transfer counters of one engine run, from its
// Profile. atomic_ops is schedule-dependent by one per work-group until the
// roadmap's candidate-order fix lands.
func (p *probe) profileMetrics(prof *search.Profile) {
	if prof == nil {
		return
	}
	agg := map[string]*gpu.Stats{"finder": {}, "comparer": {}}
	launches := map[string]int{}
	for name, st := range prof.Kernels {
		k := "finder"
		if strings.HasPrefix(name, "comparer") { // every comparer variant
			k = "comparer"
		}
		agg[k].Add(&st)
		launches[k] += prof.Launches[name]
	}
	for k, st := range agg {
		p.set("gpu."+k+".launches", float64(launches[k]))
		for _, c := range kernelCounters {
			p.set("gpu."+k+"."+c.name, float64(c.get(st)))
		}
	}
	p.set("search.candidate_sites", float64(prof.CandidateSites))
	p.set("search.entries", float64(prof.Entries))
	p.set("alloc.arena_bytes", float64(prof.ArenaBytes))
	p.set("alloc.page_claims", float64(prof.ArenaPageClaims))
	p.set("alloc.overflow_retries", float64(prof.OverflowRetries))
	p.set("host.bytes_staged", float64(prof.BytesStaged))
	p.set("host.bytes_read", float64(prof.BytesRead))
}

// modelProbes reports the modelled device side: the cost model's terms for
// one cell, the comparer's achieved-vs-roofline fraction, its harmonic mean
// over the Table VII devices (Pennycook's performance portability), and the
// parsed paper tables.
func (p *probe) modelProbes() error {
	wl := bench.HG38Workload(simScale)
	var fracs []float64
	for _, name := range []string{"RVII", "MI60", simDevice} {
		spec, err := device.ByName(name)
		if err != nil {
			return err
		}
		id := p.tr.start("bench.measure", "timing", len(fracs), -1)
		meas, err := bench.Measure(spec, bench.SYCL, baseComparer, wl)
		s := p.tr.end(id)
		if err != nil {
			return err
		}
		bd := meas.ComparerBreakdown
		if total := bd.Total(); total > 0 {
			fracs = append(fracs, max(bd.Compute, bd.Bandwidth)/total)
		}
		if name == simDevice {
			p.set("probe.op_s", s)
			p.set("timing.finder_s", meas.FinderSeconds)
			p.set("timing.comparer_s", meas.ComparerSeconds)
			p.set("timing.host_s", meas.HostSeconds)
			if n := len(fracs); n > 0 {
				p.set("timing.comparer_roof_frac", fracs[n-1])
			}
		}
	}
	if len(fracs) == 3 {
		p.set("timing.pp_harmonic", harmonicMean(fracs))
	}

	var errs []float64
	for _, r := range p.m.t8 {
		key := "timing.t8." + strings.ToLower(r.Dataset+"."+r.Device)
		for api, v := range map[string]float64{"opencl": r.A, "sycl": r.B} {
			if _, ok := findMetric(key + "." + api + "_s"); ok {
				p.set(key+"."+api+"_s", v)
			}
		}
		if paper, ok := paperT8[r.Dataset+"/"+r.Device]; ok {
			errs = append(errs, math.Abs(r.A-paper[0])/paper[0], math.Abs(r.B-paper[1])/paper[1])
		}
	}
	if len(errs) > 0 {
		p.set("timing.t8_mape", sum(errs)/float64(len(errs)))
	}
	if len(p.m.t9) > 0 {
		lo, hi := p.m.t9[0].Speedup, p.m.t9[0].Speedup
		for _, r := range p.m.t9 {
			lo, hi = min(lo, r.Speedup), max(hi, r.Speedup)
		}
		p.set("timing.t9_speedup_min", lo)
		p.set("timing.t9_speedup_max", hi)
	}
	return nil
}

// spanMetrics derives the metrics that are medians or sums of spans by name.
// Engine stage and launch spans are busy time summed over workers, per
// traced op.
func (p *probe) spanMetrics() {
	// The benchmark's own probe spans are named after their metric.
	for _, name := range []string{"input.parse", "genome.generate", "genome.load_fasta", "genome.load_cart",
		"genome.build_cart", "genome.chunk_walk", "pipeline.compile"} {
		if d := p.tr.named(name, anyOp); len(d) > 0 {
			p.set(name+"_s", median(d))
		}
	}
	only, ops := p.stageOp, p.tracedOps
	for _, stage := range []string{"stage", "find", "compare", "drain", "emit"} {
		if d := p.tr.named(stage, only); len(d) > 0 {
			p.set("pipeline."+stage+"_busy_s", sum(d)/ops)
		}
	}
	finderS := sum(p.tr.named("launch:finder", only))
	comparerS := sum(p.tr.named("launch:comparer", only))
	if finderS+comparerS == 0 {
		return
	}
	p.set("gpu.launch_finder_busy_s", finderS/ops)
	p.set("gpu.launch_comparer_busy_s", comparerS/ops)
	fi, ok1 := p.out["gpu.finder.work_items"]
	ci, ok2 := p.out["gpu.comparer.work_items"]
	if ok1 && ok2 {
		// The Profile counts are one engine run's; the launch spans cover
		// engineRuns of them.
		p.set("gpu.sim_items_per_s", (fi.Value+ci.Value)*p.engineRuns/(finderS+comparerS))
	}
}
