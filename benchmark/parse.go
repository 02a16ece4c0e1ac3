package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hitKey identifies a hit independently of how it was rendered: the tuple
// the oracle is compared on.
type hitKey struct {
	Guide      string
	Seq        string
	Pos        int
	Dir        byte
	Mismatches int
}

// parseCLIHits parses casoffinder's tab-separated output: guide, sequence,
// position, site, strand, mismatches.
func parseCLIHits(out []byte) ([]hitKey, error) {
	var hits []hitKey
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 6 || len(f[4]) != 1 {
			return nil, fmt.Errorf("malformed hit line %q", sc.Text())
		}
		pos, err1 := strconv.Atoi(f[2])
		mm, err2 := strconv.Atoi(f[5])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("malformed hit line %q", sc.Text())
		}
		hits = append(hits, hitKey{Guide: f[0], Seq: f[1], Pos: pos, Dir: f[4][0], Mismatches: mm})
	}
	return hits, sc.Err()
}

// trailer is the part of casoffinderd's final NDJSON object the benchmark
// checks; later fields the daemon may add are ignored.
type trailer struct {
	Done     *bool  `json:"done"`
	Hits     *int64 `json:"hits"`
	Degraded bool   `json:"degraded"`
}

// splitNDJSON separates a /search response body into its hit lines and the
// trailer, which must be the last line and carry "done" and "hits".
func splitNDJSON(body []byte) (hitLines []byte, tr trailer, err error) {
	body = bytes.TrimRight(body, "\n")
	if len(body) == 0 {
		return nil, tr, fmt.Errorf("empty response body")
	}
	last := body
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		hitLines, last = body[:i+1], body[i+1:]
	}
	if err := json.Unmarshal(last, &tr); err != nil {
		return nil, tr, fmt.Errorf("trailer: %w", err)
	}
	if tr.Done == nil || tr.Hits == nil {
		return nil, tr, fmt.Errorf("last line is not a trailer: %s", last)
	}
	return hitLines, tr, nil
}

// parseNDJSONHits decodes the hit lines of a /search response.
func parseNDJSONHits(hitLines []byte) ([]hitKey, error) {
	var hits []hitKey
	sc := bufio.NewScanner(bytes.NewReader(hitLines))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var h struct {
			Guide      string `json:"guide"`
			Seq        string `json:"seq"`
			Pos        int    `json:"pos"`
			Dir        string `json:"dir"`
			Mismatches int    `json:"mismatches"`
		}
		if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
			return nil, fmt.Errorf("hit line: %w", err)
		}
		if len(h.Dir) != 1 {
			return nil, fmt.Errorf("hit line: strand %q", h.Dir)
		}
		hits = append(hits, hitKey{Guide: h.Guide, Seq: h.Seq, Pos: h.Pos, Dir: h.Dir[0], Mismatches: h.Mismatches})
	}
	return hits, sc.Err()
}

// tableRow is one (dataset, device) row of benchtab's Table VIII or IX CSV:
// A is the opencl_s/base_s column, B the sycl_s/opt_s column.
type tableRow struct {
	Dataset string
	Device  string
	A, B    float64
	Speedup float64
}

// parseTableCSV parses `benchtab -csv -table 8|9`. Columns are found by
// header name, so an added column does not break the benchmark.
func parseTableCSV(data []byte, colA, colB string) ([]tableRow, error) {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("table csv has no rows")
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	for _, want := range []string{"dataset", "device", colA, colB, "speedup"} {
		if _, ok := col[want]; !ok {
			return nil, fmt.Errorf("table csv has no %q column", want)
		}
	}
	var rows []tableRow
	for _, rec := range recs[1:] {
		r := tableRow{Dataset: rec[col["dataset"]], Device: rec[col["device"]]}
		for _, f := range []struct {
			dst *float64
			col string
		}{{&r.A, colA}, {&r.B, colB}, {&r.Speedup, "speedup"}} {
			if *f.dst, err = strconv.ParseFloat(rec[col[f.col]], 64); err != nil {
				return nil, fmt.Errorf("table csv %s: %w", f.col, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// promPage is a parsed Prometheus text page: series name (labels included)
// to value.
type promPage map[string]float64

func parseProm(text []byte) promPage {
	page := promPage{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			page[line[:i]] = v
		}
	}
	return page
}

// family sums every series of a metric family (all label sets); a name with
// its label set, such as `x_total{status="ok"}`, selects that one series. ok
// is false when the page has no such family, so the caller omits the metric.
func (p promPage) family(name string) (sum float64, ok bool) {
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
			ok = true
		}
	}
	return sum, ok
}

// promDelta is after-before for a family; ok only if the family is on the later
// page (a counter first touched inside the window starts from 0).
func promDelta(before, after promPage, family string) (float64, bool) {
	a, ok := after.family(family)
	if !ok {
		return 0, false
	}
	b, _ := before.family(family)
	return a - b, true
}

// childUsage is what the kernel accounted to an exited child.
type childUsage struct {
	CPUSeconds float64
	PeakRSSMB  float64
}

func usageOf(ps *os.ProcessState) childUsage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok || ru == nil {
		return childUsage{}
	}
	return rusageToUsage(ru, runtime.GOOS)
}

// rusageToUsage converts a raw rusage. ru_maxrss is kilobytes on Linux and
// bytes on Darwin.
func rusageToUsage(ru *syscall.Rusage, goos string) childUsage {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	rssBytes := float64(ru.Maxrss) * 1024
	if goos == "darwin" {
		rssBytes = float64(ru.Maxrss)
	}
	return childUsage{
		CPUSeconds: tv(ru.Utime) + tv(ru.Stime),
		PeakRSSMB:  rssBytes / (1 << 20),
	}
}
