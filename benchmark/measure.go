package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"casoffinder/internal/genome"
)

// maxFailureNotes caps the failure messages a result carries.
const maxFailureNotes = 5

// oracleSamples is how many requests of a daemon workload get the full
// oracle check; every request gets the trailer checks.
const oracleSamples = 8

// measurement is what the untraced pass over the real binaries observed.
// Times are seconds.
type measurement struct {
	w    workload
	seed int64

	setupRounds []float64 // timed system-under-test calls per set-up round
	oracleS     float64

	// One entry per measured op that completed OK.
	opWall, opTTFH []float64
	// Per op for the exec workloads; the daemon's are whole-life figures.
	opCPU, opRSS []float64
	windowS      float64

	attempted, failed int
	failures          []string
	digests           []string // per-op output digests, failed ops included as "failed"
	// workloadFault is a failed check that belongs to no single op.
	workloadFault string

	// daemon workloads
	served       int          // requests the rounds' daemons answered over their whole lives
	daemonCPU    float64      // their user+sys CPU seconds, summed
	daemonPeaks  []float64    // each one's peak resident set, MB
	prom         []promWindow // the daemon's /metrics around each round's window
	hitsTotal    int64
	non200       int
	degradedReqs int

	// sim-paper
	t8, t9 []tableRow

	// Inputs the traced pass replays.
	genomeDir string
	cartPath  string
	inputPath string
	guides    []string
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < maxFailureNotes {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// timed adds the wall time of one set-up step of the system under test to
// *total; a failed step aborts the run, since no workload is sized to have
// one.
func timed(total *time.Duration, res execResult) error {
	*total += res.Wall
	return res.Err
}

// genomegen writes the seeded FASTA directory and, if cart is non-empty, the
// artifact with the PAM index.
func genomegen(h *harness, w workload, seed int64, dir, cart string) execResult {
	args := []string{"-profile", "hg38", "-bases", fmt.Sprint(w.Bases), "-seed", fmt.Sprint(seed), "-dir", dir}
	if cart != "" {
		args = append(args, "-artifact", cart, "-artifact-pattern", pamPattern)
	}
	return h.run("genomegen", args...)
}

// oracleFor reads the generated FASTA back and computes the oracle's hit set
// of each guide, timing itself as prep.
func (m *measurement) oracleFor(guides []string) ([]map[hitKey]bool, error) {
	t0 := time.Now()
	asm, err := genome.LoadDir(m.genomeDir)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	sets, err := oracle(asm, guides, m.w.Mismatches)
	m.oracleS = time.Since(t0).Seconds()
	return sets, err
}

// execOK records one exec op that passed its checks.
func (m *measurement) execOK(i int, output []byte, res execResult, ttfh time.Duration) {
	m.digests[i] = digestBytes(output)
	m.opWall = append(m.opWall, res.Wall.Seconds())
	m.opTTFH = append(m.opTTFH, ttfh.Seconds())
	m.opCPU = append(m.opCPU, res.Usage.CPUSeconds)
	m.opRSS = append(m.opRSS, res.Usage.PeakRSSMB)
}

// share splits n ops over the rounds of a run: round r runs ops [lo, hi).
func share(n, rounds, r int) (lo, hi int) { return n * r / rounds, n * (r + 1) / rounds }

// measureCLI drives casoffinder once per op, one child at a time. A run is
// rounds rounds, each setting up from nothing and then running its share of
// the ops.
func measureCLI(h *harness, w workload, seed int64, ops, rounds int) (*measurement, error) {
	m := &measurement{w: w, guides: guidesFor(seed, "cli", w.Guides)}
	opArgs := func(out string) []string {
		args := []string{"-engine", "cpu"}
		if w.Cart {
			args = append(args, "-index", "use", "-index-file", m.cartPath)
		}
		return append(args, "-o", out, m.inputPath)
	}
	outDir := filepath.Join(h.work, "ops")
	if err := h.mkdir(outDir); err != nil {
		return nil, err
	}
	outs := make([]string, ops)
	results := make([]execResult, ops)
	var want map[hitKey]bool
	var dir string
	for r := 0; r < rounds; r++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(h.work, fmt.Sprintf("setup-%d", r))
		m.genomeDir = filepath.Join(dir, "genome")
		m.inputPath = filepath.Join(dir, "input.txt")
		m.cartPath = filepath.Join(dir, "genome.cart")
		var total time.Duration
		if err := timed(&total, genomegen(h, w, seed, m.genomeDir, "")); err != nil {
			return nil, err
		}
		if err := os.WriteFile(m.inputPath, cliInput(m.genomeDir, m.guides, w.Mismatches), 0o644); err != nil {
			return nil, err
		}
		if w.Cart {
			build := h.run("casoffinder", "-engine", "cpu", "-index", "build", "-index-file", m.cartPath,
				"-o", filepath.Join(dir, "build.out"), m.inputPath)
			if err := timed(&total, build); err != nil {
				return nil, err
			}
		}
		for i := 0; i < w.WarmOps; i++ {
			if err := timed(&total, h.run("casoffinder", opArgs(filepath.Join(dir, "warm.out"))...)); err != nil {
				return nil, err
			}
		}
		m.setupRounds = append(m.setupRounds, total.Seconds())

		if want == nil {
			sets, err := m.oracleFor(m.guides)
			if err != nil {
				return nil, err
			}
			want = union(sets)
		}

		lo, hi := share(ops, rounds, r)
		start := time.Now()
		for i := lo; i < hi; i++ {
			outs[i] = filepath.Join(outDir, fmt.Sprintf("op-%d.out", i))
			results[i] = h.run("casoffinder", opArgs(outs[i])...)
		}
		m.windowS += time.Since(start).Seconds()
	}

	for i, res := range results {
		m.attempted++
		m.digests = append(m.digests, "failed")
		if res.Err != nil {
			m.fail("op %d: %v", i, res.Err)
			continue
		}
		out, err := os.ReadFile(outs[i])
		if err != nil {
			m.fail("op %d: %v", i, err)
			continue
		}
		hits, err := parseCLIHits(out)
		if err != nil {
			m.fail("op %d: %v", i, err)
			continue
		}
		if diff := sameHits(hits, want); diff != "" {
			m.fail("op %d: %s", i, diff)
			continue
		}
		// casoffinder buffers its output file until exit at these hit
		// counts, so the first hit reaches the user when the process ends.
		m.execOK(i, out, res, res.Wall)
	}
	return m, nil
}

// measureSim drives `benchtab -csv -table 8` once per op; each round's
// set-up runs the Table IX CSV, which is also the warm-up.
func measureSim(h *harness, w workload, ops, rounds int) (*measurement, error) {
	m := &measurement{w: w}
	scale := fmt.Sprint(simScale)
	results := make([]execResult, ops)
	for r := 0; r < rounds; r++ {
		var total time.Duration
		res := h.run("benchtab", "-csv", "-table", "9", "-scale", scale)
		err := timed(&total, res)
		if err != nil {
			return nil, err
		}
		if m.t9, err = parseTableCSV(res.Stdout, "base_s", "opt_s"); err != nil {
			return nil, fmt.Errorf("table 9: %w", err)
		}
		m.setupRounds = append(m.setupRounds, total.Seconds())

		lo, hi := share(ops, rounds, r)
		start := time.Now()
		for i := lo; i < hi; i++ {
			results[i] = h.run("benchtab", "-csv", "-table", "8", "-scale", scale)
		}
		m.windowS += time.Since(start).Seconds()
	}
	for _, r := range m.t9 {
		if r.Speedup < 1.09 || r.Speedup > 1.23 {
			m.workloadFault = fmt.Sprintf("Table IX %s/%s speed-up %.3f outside the paper's [1.09, 1.23]", r.Dataset, r.Device, r.Speedup)
		}
	}

	var first []byte
	for i, res := range results {
		m.attempted++
		m.digests = append(m.digests, "failed")
		if res.Err != nil {
			m.fail("op %d: %v", i, res.Err)
			continue
		}
		rows, err := parseTableCSV(res.Stdout, "opencl_s", "sycl_s")
		if err != nil {
			m.fail("op %d: %v", i, err)
			continue
		}
		if first == nil {
			first, m.t8 = res.Stdout, rows
		}
		if !bytes.Equal(res.Stdout, first) {
			m.fail("op %d: Table VIII CSV differs from the first op's", i)
			continue
		}
		if bad := t8Shape(rows); bad != "" {
			m.fail("op %d: %s", i, bad)
			continue
		}
		m.execOK(i, res.Stdout, res, res.FirstByte)
	}
	return m, nil
}

// t8Shape checks the paper's Table VIII shape: the SYCL application is at
// least as fast as the OpenCL one in every cell.
func t8Shape(rows []tableRow) string {
	if len(rows) != 6 {
		return fmt.Sprintf("Table VIII has %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.B > r.A {
			return fmt.Sprintf("Table VIII %s/%s: SYCL %.3f s slower than OpenCL %.3f s", r.Dataset, r.Device, r.B, r.A)
		}
	}
	return ""
}

// request is one finished POST /search.
type request struct {
	wall, ttfh time.Duration
	status     int
	body       []byte // kept only for the oracle sample
	digest     string
	hitLines   int
	trailer    trailer
	err        error
}

// newClient is the load generator's HTTP client: keep-alive, and never more
// connections than clients.
func newClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     daemonClients,
			MaxIdleConnsPerHost: daemonClients,
			DisableCompression:  true,
		},
	}
}

// doSearch sends one request and reads the reply to its end, timing request
// sent to first body line and to the trailer. buf is the caller's reusable
// body buffer; the returned body aliases it unless keep is set.
func doSearch(client *http.Client, url string, body []byte, buf *bytes.Buffer, keep bool) request {
	var r request
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	buf.Reset()
	line, err := br.ReadSlice('\n')
	r.ttfh = time.Since(t0)
	buf.Write(line)
	if err == nil || err == bufio.ErrBufferFull {
		_, err = io.Copy(buf, br)
	}
	r.wall = time.Since(t0)
	if err != nil && err != io.EOF {
		r.err = err
		return r
	}
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(buf.Bytes()))
		return r
	}
	hitLines, tr, err := splitNDJSON(buf.Bytes())
	if err != nil {
		r.err = err
		return r
	}
	r.trailer = tr
	r.hitLines = bytes.Count(hitLines, []byte{'\n'})
	r.digest = digestBytes(hitLines)
	if keep {
		r.body = append([]byte(nil), hitLines...)
	}
	return r
}

// closedLoop is the load generator: daemonClients clients, each on its own
// keep-alive connection, each sending its next request only after its
// previous reply. The clients send in rounds — round i+1 starts when every
// reply of round i is in — because the free-running loop has two metastable
// phases on a daemon that serializes passes: pairs that coalesce into one
// pass, and singles that alternate and each wait out the other's pass, at
// 1.5x the latency. A free-running loop drifts from the first into the second
// at a random moment and never back, so a run's median would depend on when
// it flipped. Rounds pin the first phase, and with it the request-to-pass
// mapping, on every run of every commit. send gets the client, the request
// index and that client's reusable body buffer.
func closedLoop(from, to int, send func(c, i int, buf *bytes.Buffer)) {
	var bufs [daemonClients]bytes.Buffer
	for i := from; i < to; i++ {
		var wg sync.WaitGroup
		var panicked [daemonClients]any
		for c := 0; c < daemonClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// A panic here would end the process without the caller's
				// deferred clean-up and orphan the daemon; hand it over.
				defer func() { panicked[c] = recover() }()
				send(c, i, &bufs[c])
			}(c)
		}
		wg.Wait()
		for _, p := range panicked {
			if p != nil {
				panic(p)
			}
		}
	}
}

// promWindow is the daemon's /metrics page before and after one window.
type promWindow struct{ before, after promPage }

// measureDaemon drives a real casoffinderd with the closed loop. Every round
// starts a fresh daemon on a fresh artifact, warms it and sends its share of
// the measured requests, so a run's medians pool several daemon lifetimes
// rather than inherit one process's luck.
func measureDaemon(h *harness, w workload, seed int64, ops, rounds int) (*measurement, error) {
	perClient := w.WarmOps + ops
	m := &measurement{w: w, guides: guidesFor(seed, w.Name, daemonClients*perClient)}
	client := newClient()
	defer client.CloseIdleConnections()
	// Client c's i-th request uses guide c*perClient+i; the first WarmOps
	// of each client are the warm-up, sent again to every round's daemon.
	guideOf := func(c, i int) int { return c*perClient + i }
	var measured []int
	for c := 0; c < daemonClients; c++ {
		for i := w.WarmOps; i < perClient; i++ {
			measured = append(measured, guideOf(c, i))
		}
	}
	sampled := map[int]bool{}
	for _, k := range sampleIndexes(seed, w.Name, len(measured), oracleSamples) {
		sampled[measured[k]] = true
	}

	// loop runs requests [from, to) of every client into reqs, which is
	// indexed like the guides.
	reqs := make([]request, len(m.guides))
	loop := func(url string, from, to int) {
		closedLoop(from, to, func(c, i int, buf *bytes.Buffer) {
			g := guideOf(c, i)
			reqs[g] = doSearch(client, url, searchBody(m.guides[g], w.Mismatches), buf, sampled[g])
		})
	}

	var want map[int]map[hitKey]bool
	var dir string
	for r := 0; r < rounds; r++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(h.work, fmt.Sprintf("setup-%d", r))
		if err := h.mkdir(dir); err != nil { // genomegen writes the artifact before it creates -dir
			return nil, err
		}
		m.genomeDir = filepath.Join(dir, "genome")
		m.cartPath = filepath.Join(dir, "g.cart")
		var total time.Duration
		if err := timed(&total, genomegen(h, w, seed, m.genomeDir, m.cartPath)); err != nil {
			return nil, err
		}
		args := []string{"-artifact", "g=" + m.cartPath}
		if w.Engine != "cpu" {
			args = append(args, "-engine", w.Engine, "-device", simDevice)
		}
		t0 := time.Now()
		d, err := h.startDaemon(client, args...)
		if err != nil {
			return nil, err
		}
		base := "http://" + d.addr
		loop(base+"/search", 0, w.WarmOps)
		for c := 0; c < daemonClients; c++ {
			for i := 0; i < w.WarmOps; i++ {
				if err := reqs[guideOf(c, i)].err; err != nil {
					d.stop()
					return nil, fmt.Errorf("warm-up request: %w", err)
				}
			}
		}
		total += time.Since(t0)
		m.setupRounds = append(m.setupRounds, total.Seconds())

		if want == nil {
			if want, err = m.daemonOracle(sampled); err != nil {
				d.stop()
				return nil, err
			}
		}

		lo, hi := share(ops, rounds, r)
		pw := promWindow{before: scrape(client, base)}
		start := time.Now()
		loop(base+"/search", w.WarmOps+lo, w.WarmOps+hi)
		m.windowS += time.Since(start).Seconds()
		pw.after = scrape(client, base)
		m.prom = append(m.prom, pw)
		peak, havePeak := procStatusMB(d.cmd.Process.Pid, "VmHWM")
		usage := d.stop()
		if !havePeak {
			peak = usage.PeakRSSMB
		}
		m.daemonCPU += usage.CPUSeconds
		m.daemonPeaks = append(m.daemonPeaks, peak)
		m.served += daemonClients * (w.WarmOps + hi - lo)
	}

	for _, g := range measured {
		req := reqs[g]
		m.attempted++
		m.digests = append(m.digests, "failed")
		if req.status != 0 && req.status != http.StatusOK {
			m.non200++
		}
		if req.err != nil {
			m.fail("request %d: %v", g, req.err)
			continue
		}
		tr := req.trailer
		if tr.Degraded {
			m.degradedReqs++
		}
		if !*tr.Done || tr.Degraded || *tr.Hits != int64(req.hitLines) {
			m.fail("request %d: trailer done=%v degraded=%v hits=%d over %d hit lines", g, *tr.Done, tr.Degraded, *tr.Hits, req.hitLines)
			continue
		}
		if set, ok := want[g]; ok {
			hits, err := parseNDJSONHits(req.body)
			if err != nil {
				m.fail("request %d: %v", g, err)
				continue
			}
			if diff := sameHits(hits, set); diff != "" {
				m.fail("request %d: %s", g, diff)
				continue
			}
		}
		m.digests[len(m.digests)-1] = req.digest
		m.hitsTotal += int64(req.hitLines)
		m.opWall = append(m.opWall, req.wall.Seconds())
		m.opTTFH = append(m.opTTFH, req.ttfh.Seconds())
	}
	return m, nil
}

// daemonOracle computes the oracle's hit sets for the sampled requests, keyed
// by guide index.
func (m *measurement) daemonOracle(sampled map[int]bool) (map[int]map[hitKey]bool, error) {
	var idx []int
	var guides []string
	for g := range m.guides {
		if sampled[g] {
			idx = append(idx, g)
			guides = append(guides, m.guides[g])
		}
	}
	sets, err := m.oracleFor(guides)
	if err != nil {
		return nil, err
	}
	want := make(map[int]map[hitKey]bool, len(idx))
	for i, g := range idx {
		want[g] = sets[i]
	}
	return want, nil
}

// scrape fetches the daemon's /metrics page; a failed scrape is an empty
// page, which only omits the metrics derived from it.
func scrape(client *http.Client, base string) promPage {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return promPage{}
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return promPage{}
	}
	return parseProm(text)
}
