package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// boundsFrom overlays the bounds of a BENCHMARK.json onto the registry's, so
// that a later correction of the manifest needs no edit here.
func boundsFrom(path string) (map[string]float64, error) {
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []struct {
			Name  string   `json:"name"`
			Bound *float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, e := range m.EndToEnd {
		if e.Bound != nil {
			bounds[e.Name] = *e.Bound
		}
	}
	return bounds, nil
}

// Verdicts of one compared row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNone       = "-" // per-layer rows are shown, not gated
)

// worseBy is how much worse cand is than base, direction-aware: a share of
// the base, or the plain difference for an absolute bound. Negative means
// better.
func worseBy(def metricDef, base, cand float64) float64 {
	d := cand - base
	if def.Better == "higher" {
		d = -d
	}
	if def.Absolute {
		return d
	}
	if base == 0 {
		if d == 0 {
			return 0
		}
		return d / math.Abs(d) // any change from a zero base is a whole share
	}
	return d / math.Abs(base)
}

// judge applies one end-to-end bound to the runs of both sides. With several
// runs a side, a spread wider than the bound makes a within-bound difference
// unresolved rather than ok, unless every run of cand beats every run of
// base.
func judge(def metricDef, bound float64, base, cand []float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return verdictUnresolved
	}
	if worseBy(def, median(base), median(cand)) > bound {
		return verdictWorse
	}
	if !def.Absolute && (spread(base) > bound || spread(cand) > bound) {
		for _, b := range base {
			for _, c := range cand {
				if worseBy(def, b, c) >= 0 {
					return verdictUnresolved
				}
			}
		}
	}
	return verdictOK
}

// compareRow is one printed row.
type compareRow struct {
	Workload, Metric, Unit string
	Base, Cand             float64
	Have                   bool // both sides have the metric
	Verdict                string
}

func values(rs []*result, pick func(*result) map[string]metricValue, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := pick(r)[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareResults builds every row: per workload the end-to-end metrics that
// apply to it, one digest row per seed both sides ran, then the per-layer
// metrics both sides report.
func compareResults(base, cand []*result, bounds map[string]float64) []compareRow {
	group := func(rs []*result) map[string][]*result {
		g := map[string][]*result{}
		for _, r := range rs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	gb, gc := group(base), group(cand)
	e2e := func(r *result) map[string]metricValue { return r.EndToEnd }
	layer := func(r *result) map[string]metricValue { return r.PerLayer }
	var rows []compareRow
	for _, w := range workloads {
		rb, rc := gb[w.Name], gc[w.Name]
		if len(rb) == 0 && len(rc) == 0 {
			continue
		}
		for _, def := range endToEnd {
			if !def.appliesTo(w.Name) {
				continue
			}
			vb, vc := values(rb, e2e, def.Name), values(rc, e2e, def.Name)
			rows = append(rows, compareRow{
				Workload: w.Name, Metric: def.Name, Unit: def.Unit,
				Base: median(vb), Cand: median(vc), Have: len(vb) > 0 && len(vc) > 0,
				Verdict: judge(def, bounds[def.Name], vb, vc),
			})
		}
		digests := map[int64]string{}
		for _, r := range rb {
			digests[r.Seed] = r.OutputDigest
		}
		sort.Slice(rc, func(i, j int) bool { return rc[i].Seed < rc[j].Seed })
		for _, r := range rc {
			want, ok := digests[r.Seed]
			if !ok {
				continue
			}
			v := verdictOK
			if want != r.OutputDigest {
				v = verdictWorse
			}
			rows = append(rows, compareRow{Workload: w.Name, Metric: fmt.Sprintf("output_digest[seed=%d]", r.Seed), Verdict: v})
		}
		for _, def := range perLayer {
			vb, vc := values(rb, layer, def.Name), values(rc, layer, def.Name)
			if len(vb) > 0 && len(vc) > 0 {
				rows = append(rows, compareRow{Workload: w.Name, Metric: def.Name, Unit: def.Unit,
					Base: median(vb), Cand: median(vc), Have: true, Verdict: verdictNone})
			}
		}
	}
	return rows
}

// runCompare is the -compare mode. It returns the process exit code: 1 when
// any row is worse.
func runCompare(out io.Writer, manifestPath, basePath, candPath string) (int, error) {
	bounds, err := boundsFrom(manifestPath)
	if err != nil {
		return 2, err
	}
	base, err := loadResults(basePath)
	if err != nil {
		return 2, err
	}
	cand, err := loadResults(candPath)
	if err != nil {
		return 2, err
	}
	rows := compareResults(base, cand, bounds)
	fmt.Fprintf(out, "%-13s %-40s %14s %14s %-9s %-22s %s\n", "workload", "metric", "base", "candidate", "unit", "candidate/base", "verdict")
	worse := 0
	for _, r := range rows {
		ratio := ""
		if r.Have && r.Base != 0 {
			ratio = fmt.Sprintf("%.4f (base %.6g)", r.Cand/r.Base, r.Base)
		}
		if r.Unit == "" { // digest row
			fmt.Fprintf(out, "%-13s %-40s %14s %14s %-9s %-22s %s\n", r.Workload, r.Metric, "", "", "", "", r.Verdict)
		} else {
			fmt.Fprintf(out, "%-13s %-40s %14.6g %14.6g %-9s %-22s %s\n", r.Workload, r.Metric, r.Base, r.Cand, r.Unit, ratio, r.Verdict)
		}
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(out, "%d row(s) worse\n", worse)
		return 1, nil
	}
	return 0, nil
}
