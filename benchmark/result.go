package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is recorded in every result file: numbers from two boxes, two Go
// releases or two GOMAXPROCS settings are not comparable.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     commit,
	}
}

// result is one workload run at one seed: the content of a result file.
type result struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      int                    `json:"seconds"`
	Env          envInfo                `json:"env"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"`
	OutputDigest string                 `json:"output_digest"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

// set records a metric under its registered unit. Names the registry does
// not know are a bug in the benchmark.
func set(dst map[string]metricValue, name string, v float64) {
	def, ok := findMetric(name)
	if !ok {
		panic("benchmark: unregistered metric " + name)
	}
	dst[name] = metricValue{Value: v, Unit: def.Unit}
}

// endToEndMetrics turns the measured pass into the end-to-end metrics.
func endToEndMetrics(m *measurement) map[string]metricValue {
	e := map[string]metricValue{}
	set(e, "setup_s", median(m.setupRounds))
	set(e, "op_p50_s", median(m.opWall))
	set(e, "ttfh_p50_s", median(m.opTTFH))
	if m.windowS > 0 {
		set(e, "req_per_s", float64(len(m.opWall))/m.windowS)
	}
	if m.w.Kind == kindDaemon {
		if m.served > 0 {
			set(e, "cpu_s_per_op", m.daemonCPU/float64(m.served))
		}
		set(e, "peak_rss_mb", median(m.daemonPeaks))
	} else {
		set(e, "cpu_s_per_op", median(m.opCPU))
		set(e, "peak_rss_mb", median(m.opRSS))
	}
	if m.attempted > 0 {
		set(e, "failed_share", float64(m.failed)/float64(m.attempted))
	}
	if m.w.Kind == kindSim && len(m.t8) > 0 && len(m.t9) > 0 {
		var ocl, syc, opt []float64
		for _, r := range m.t8 {
			ocl, syc = append(ocl, r.A), append(syc, r.B)
		}
		for _, r := range m.t9 {
			opt = append(opt, r.B)
		}
		set(e, "model_t8_opencl_s", geomean(ocl))
		set(e, "model_t8_sycl_s", geomean(syc))
		set(e, "model_t9_opt_s", geomean(opt))
	}
	return e
}

// newResult fills the identity, correctness and digest of a run.
func newResult(m *measurement, seconds int, env envInfo) *result {
	r := &result{
		Workload:     m.w.Name,
		Seed:         m.seed,
		Seconds:      seconds,
		Env:          env,
		Attempted:    m.attempted,
		Failed:       m.failed,
		Failures:     m.failures,
		OutputDigest: outputDigest(m.digests),
	}
	if m.workloadFault != "" {
		r.Failures = append(r.Failures, m.workloadFault)
	}
	r.Correct = m.failed == 0 && m.workloadFault == "" && m.attempted > 0
	return r
}

// write stores the result as DIR/<workload>.seed<N>.json.
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.seed%d.json", r.Workload, r.Seed)), append(data, '\n'), 0o644)
}

// print lists every metric of the run by name with its unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d correct=%v attempted=%d failed=%d digest=%.16s\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.OutputDigest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, sec := range []struct {
		title string
		vals  map[string]metricValue
		defs  []metricDef
	}{{"end-to-end (untraced, real binaries)", r.EndToEnd, endToEnd}, {"per-layer (traced pass and /metrics)", r.PerLayer, perLayer}} {
		if len(sec.vals) == 0 {
			continue
		}
		fmt.Fprintf(w, "   -- %s\n", sec.title)
		for _, def := range sec.defs {
			if v, ok := sec.vals[def.Name]; ok {
				fmt.Fprintf(w, "   %-40s %16.6g %-9s (%s is better)\n", def.Name, v.Value, v.Unit, def.Better)
			}
		}
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: every metric of the manifest's list for this trace mode.
// A per-layer metric that does not apply to the workload, or whose source is
// gone, reads 0 there.
func (r *result) driverLine(traced bool) ([]byte, error) {
	defs, vals := driverEndToEnd(), r.EndToEnd
	if traced {
		defs = driverPerLayer()
		vals = map[string]metricValue{}
		for k, v := range r.PerLayer {
			vals[k] = v
		}
		for k, v := range r.EndToEnd { // failed_share and the modelled times
			vals[k] = v
		}
	}
	metrics := map[string]metricValue{}
	for _, def := range defs {
		v, ok := vals[def.Name]
		if !ok {
			if !traced {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", def.Name)
			}
			v = metricValue{Unit: def.Unit}
		}
		metrics[def.Name] = v
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// loadResults reads one result file, or every *.seed*.json of a directory.
func loadResults(path string) ([]*result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.seed*.json")); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s holds no result files", path)
		}
		sort.Strings(files)
	}
	var out []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	return out, nil
}
