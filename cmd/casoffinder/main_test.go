package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"casoffinder/internal/fault"
	"casoffinder/internal/pipeline"
)

// writeTestData creates a genome directory with a planted site and an
// input file referring to it.
func writeTestData(t *testing.T, patternLine string) (inputPath string) {
	t.Helper()
	dir := t.TempDir()
	genomeDir := filepath.Join(dir, "chrs")
	if err := os.MkdirAll(genomeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// chr1 carries a perfect GATTACAGTA+CGG site at position 4.
	fasta := ">chr1\nTTTTGATTACAGTACGGTTTTTTTTTTTTTTT\n"
	if err := os.WriteFile(filepath.Join(genomeDir, "chr1.fa"), []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}
	input := genomeDir + "\n" + patternLine + "\nGATTACAGTANNN 1\n"
	inputPath = filepath.Join(dir, "input.txt")
	if err := os.WriteFile(inputPath, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	return inputPath
}

func TestRunCPUEngine(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	if err := run([]string{"-engine", "cpu", input}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "chr1\t4\t") {
		t.Errorf("output missing the planted site:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "sites reported") {
		t.Errorf("stderr missing summary: %s", errOut.String())
	}
}

// TestRunTabbedHeader: a FASTA header whose description follows a tab names
// the sequence by its first word, so every text hit line keeps its 6 columns.
func TestRunTabbedHeader(t *testing.T) {
	dir := t.TempDir()
	fasta := ">chr1\tsome description\nTTTTGATTACAGTACGGTTTTTTTTTTTTTTT\n"
	if err := os.WriteFile(filepath.Join(dir, "chr1.fa"), []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}
	input := filepath.Join(dir, "input.txt")
	if err := os.WriteFile(input, []byte(dir+"\nNNNNNNNNNNNGG\nGATTACAGTANNN 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{input}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no hits")
	}
	for _, line := range lines {
		if f := strings.Split(line, "\t"); len(f) != 6 || f[1] != "chr1" {
			t.Errorf("hit line has %d fields, sequence %q: %q", len(f), f[1], line)
		}
	}
}

func TestRunSimEnginesWithProfile(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	for _, engine := range []string{"opencl", "sycl"} {
		var out, errOut bytes.Buffer
		err := run([]string{"-engine", engine, "-device", "RVII", "-variant", "base", input}, &out, &errOut)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !strings.Contains(out.String(), "chr1\t4\t") {
			t.Errorf("%s: output missing the planted site:\n%s", engine, out.String())
		}
		if !strings.Contains(errOut.String(), "kernel") {
			t.Errorf("%s: no kernel profile on stderr: %s", engine, errOut.String())
		}
	}
}

// TestRunProfileKernelOrder: the profile block lists its kernels sorted by
// name on every run, not in map order (which would swap the finder and
// comparer lines between identical runs).
func TestRunProfileKernelOrder(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	for i := 0; i < 10; i++ {
		var out, errOut bytes.Buffer
		if err := run([]string{"-engine", "sycl", input}, &out, &errOut); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		var kernels []string
		for _, line := range strings.Split(errOut.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "kernel" {
				kernels = append(kernels, f[1])
			}
		}
		if len(kernels) < 2 || !slices.IsSorted(kernels) {
			t.Fatalf("run %d: kernel lines %q, want at least two in sorted order", i, kernels)
		}
	}
}

// TestRunBulgeInput: a pattern line with cas-offinder-bulge's columns is an
// input error like any other ParseInput failure (exit 1, the parser's
// message as the error main prints, no hit), whatever the output flags.
func TestRunBulgeInput(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG 1 1")
	for _, args := range [][]string{{input}, {"-format", "json", input}, {"-timeout", "1s", input}} {
		var out, errOut bytes.Buffer
		err := run(args, &out, &errOut)
		if err == nil {
			t.Fatalf("%q: bulge-column input accepted", args)
		}
		if got := exitCode(err); got != exitRuntime {
			t.Errorf("%q: exitCode = %d, want %d (err: %v)", args, got, exitRuntime, err)
		}
		if !strings.Contains(err.Error(), "bulge columns are not supported") {
			t.Errorf("%q: error %q does not name the bulge columns", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%q: wrote hits for a rejected input:\n%s", args, out.String())
		}
	}
}

func TestRunOutputFile(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	outPath := filepath.Join(t.TempDir(), "hits.txt")
	var out, errOut bytes.Buffer
	if err := run([]string{"-o", outPath, input}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "chr1") {
		t.Errorf("output file content: %q", data)
	}
	if out.Len() != 0 {
		t.Error("stdout should be empty when -o is used")
	}
}

func TestRunErrors(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	tests := []struct {
		name string
		args []string
	}{
		{"no input", nil},
		{"two inputs", []string{input, input}},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.txt")}},
		{"bad engine", []string{"-engine", "cuda", input}},
		{"bad device", []string{"-engine", "sycl", "-device", "H100", input}},
		{"bad variant", []string{"-variant", "opt9", input}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, &out, &errOut); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestExitCodes(t *testing.T) {
	tests := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, exitOK},
		{"help", flag.ErrHelp, exitOK},
		{"runtime", errors.New("boom"), exitRuntime},
		{"usage", usageError{errors.New("bad flag")}, exitUsage},
		{"wrapped usage", errors.Join(errors.New("ctx"), usageError{errors.New("bad")}), exitUsage},
		{"partial", &pipeline.PartialError{Report: &pipeline.Report{Chunks: 4}}, exitPartial},
	}
	for _, tt := range tests {
		if got := exitCode(tt.err); got != tt.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tt.name, tt.err, got, tt.want)
		}
	}
}

func TestRunUsageErrorsExitUsage(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	tests := []struct {
		name string
		args []string
	}{
		{"no input", nil},
		{"bad flag", []string{"-no-such-flag", input}},
		{"bad engine", []string{"-engine", "cuda", input}},
		{"retired engine", []string{"-engine", "indexed", input}},
		{"bad variant", []string{"-variant", "opt9", input}},
		{"retired flag", []string{"-worst-case-arena", input}},
		{"bad device", []string{"-engine", "sycl", "-device", "H100", input}},
		{"bad fault site", []string{"-engine", "opencl", "-fault-rate", "0.5", "-fault-site", "gpu.meltdown", input}},
		{"retired fault site", []string{"-engine", "sycl", "-fault-site", "sycl.usm", input}},
		{"fault rate out of range", []string{"-engine", "opencl", "-fault-rate", "1.5", input}},
		{"fault flags on cpu engine", []string{"-engine", "cpu", "-fault-rate", "0.5", input}},
		{"watchdog on cpu engine", []string{"-engine", "cpu", "-watchdog", "1s", input}},
		{"unknown fleet device", []string{"-engine", "sycl", "-devices", "mi60,h100", input}},
		{"empty fleet device", []string{"-engine", "sycl", "-devices", "mi60,,mi100", input}},
		{"fleet on cpu engine", []string{"-engine", "cpu", "-devices", "mi60", input}},
		{"fleet on opencl engine", []string{"-engine", "opencl", "-devices", "mi60,mi100", input}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run(tt.args, &out, &errOut)
			if err == nil {
				t.Fatal("expected error")
			}
			if got := exitCode(err); got != exitUsage {
				t.Errorf("exitCode = %d, want %d (err: %v)", got, exitUsage, err)
			}
		})
	}
}

// TestRunFaultRecovery injects a certain failure (rate 1) at one site per
// sim engine and checks the run still reports the planted site — retries or
// the CPU failover keep the output identical to the fault-free run — while
// the degradation summary lands on stderr.
func TestRunFaultRecovery(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	tests := []struct {
		engine, site string
	}{
		{"opencl", "opencl.enqueue"},
		{"opencl", "gpu.readback"},
		{"sycl", "sycl.async"},
		// No -watchdog: a hang with no deadline to reap it fails the launch
		// at once instead of wedging the run.
		{"sycl", "gpu.hang"},
	}
	for _, tt := range tests {
		t.Run(tt.engine+"/"+tt.site, func(t *testing.T) {
			var golden, out, errOut bytes.Buffer
			if err := run([]string{"-engine", tt.engine, input}, &golden, &errOut); err != nil {
				t.Fatal(err)
			}
			errOut.Reset()
			err := run([]string{"-engine", tt.engine, "-fault-rate", "1",
				"-fault-seed", "42", "-fault-site", tt.site, input}, &out, &errOut)
			if err != nil {
				t.Fatalf("faulted run: %v (stderr: %s)", err, errOut.String())
			}
			if out.String() != golden.String() {
				t.Errorf("faulted output differs from golden:\n%s\nvs\n%s", out.String(), golden.String())
			}
			if !strings.Contains(errOut.String(), "degraded:") {
				t.Errorf("stderr missing degradation summary: %s", errOut.String())
			}
			if !strings.Contains(errOut.String(), "faults: "+tt.site+"=") {
				t.Errorf("stderr missing fault counts: %s", errOut.String())
			}
		})
	}
}

// TestRunFaultDeterminism replays the same plan twice: stdout and the fault
// summary must match byte for byte.
func TestRunFaultDeterminism(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	faultLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "faults:") {
				return line
			}
		}
		return ""
	}
	var out1, out2, err1, err2 bytes.Buffer
	// Under the watchdog an injected gpu.hang parks until the deadline reaps
	// it; an actual hang always overruns it, so the kill count stays
	// deterministic.
	args := []string{"-engine", "sycl", "-fault-rate", "0.3", "-fault-seed", "7", "-watchdog", "2s", input}
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("first run: %v (stderr: %s)", err, err1.String())
	}
	if err := run(args, &out2, &err2); err != nil {
		t.Fatalf("second run: %v (stderr: %s)", err, err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("same seed produced different hits:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if f1, f2 := faultLine(err1.String()), faultLine(err2.String()); f1 != f2 {
		t.Errorf("same seed produced different fault schedules:\n%q\nvs\n%q", f1, f2)
	}
}

// TestRunFleet drives the -devices flag: a heterogeneous fleet must print
// the same hits as a single-device run and report the per-device breakdown
// on stderr. When every device fails every launch, each fails its own
// chunks over to the CPU — one failover per chunk, whichever device held it
// — and the hits still match.
func TestRunFleet(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	// A second sequence is a second chunk: only as many devices as the plan
	// has chunks ever open.
	chr2 := filepath.Join(filepath.Dir(input), "chrs", "chr2.fa")
	if err := os.WriteFile(chr2, []byte(">chr2\nAAAAGATTACAGTACGGAAAAAAAAAAAAAAA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var golden, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-device", "mi100", "-variant", "base", input}, &golden, &errOut); err != nil {
		t.Fatalf("-device mi100: %v (stderr: %s)", err, errOut.String())
	}
	for _, tc := range []struct {
		name   string
		args   []string
		stderr []string
	}{
		{"clean", []string{"-devices", "RadeonVII,mi60,MI100"}, []string{"scheduler:\n", "device sycl-sim[0]"}},
		{"aliases", []string{"-devices", "RVII,radeonvii"}, []string{"device sycl-sim[1]"}},
		{"every launch fails", []string{"-devices", "mi60,mi100", "-fault-rate", "1", "-fault-seed", "9",
			"-fault-site", "gpu.launch", "-max-retries", "-1"}, []string{"degraded: retries=0 failovers=2 ", "faults: gpu.launch=2\n"}},
	} {
		var out bytes.Buffer
		errOut.Reset()
		args := append([]string{"-engine", "sycl", "-variant", "base"}, append(tc.args, input)...)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", tc.name, err, errOut.String())
		}
		if out.String() != golden.String() {
			t.Errorf("%s: fleet output differs from single device:\n%s\nvs\n%s", tc.name, out.String(), golden.String())
		}
		for _, want := range tc.stderr {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("%s: stderr missing %q: %s", tc.name, want, errOut.String())
			}
		}
	}
}

func TestParseFleet(t *testing.T) {
	fleet, err := parseFleet("radeonvii, MI60 ,rvii,mi100")
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 4 {
		t.Fatalf("parseFleet returned %d specs, want 4", len(fleet))
	}
	if fleet[0].Name != fleet[2].Name {
		t.Errorf("radeonvii and rvii aliases disagree: %q vs %q", fleet[0].Name, fleet[2].Name)
	}
	if fleet, err := parseFleet(""); fleet != nil || err != nil {
		t.Errorf("empty flag = %v, %v; want nil, nil", fleet, err)
	}
	if fleet, err := parseFleet("RVII,radeonvii"); err != nil || len(fleet) != 2 || fleet[0].Name != "RVII" || fleet[1].Name != "RVII" {
		t.Errorf("RVII,radeonvii = %v, %v; want two RVII specs", fleet, err)
	}
	if _, err := parseFleet("mi60,vega64"); err == nil {
		t.Error("unknown device accepted")
	}
}

// TestRunPackedEngine: the SWAR scan over the packed genome is the cpu
// engine, not an option of it — the -packed flag that used to select it is
// gone, and the default run finds the planted site.
func TestRunPackedEngine(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	if err := run([]string{input}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chr1\t4\t") {
		t.Errorf("output missing the planted site:\n%s", out.String())
	}
	err := run([]string{"-packed", input}, new(bytes.Buffer), &errOut)
	if code := exitCode(err); code != exitUsage {
		t.Errorf("-packed: exit code %d (%v), want the usage error %d", code, err, exitUsage)
	}
}

// TestRunAutoVariant: the default -variant auto resolves the tuner on the
// sim engines, reports the selection on stderr and emits the same hit lines
// as a forced variant.
func TestRunAutoVariant(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var forced, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-device", "MI60", "-variant", "base", input}, &forced, &errOut); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	errOut.Reset()
	if err := run([]string{"-engine", "sycl", "-device", "MI60", input}, &out, &errOut); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errOut.String())
	}
	if out.String() != forced.String() {
		t.Errorf("tuned output differs from forced-variant output:\n%s\nvs\n%s", out.String(), forced.String())
	}
	if !strings.Contains(errOut.String(), "autotune: sycl-sim") {
		t.Errorf("stderr missing the autotune summary: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "(model, 20 candidates scored)") {
		t.Errorf("summary does not report the 5x4 model pass: %s", errOut.String())
	}
}

// TestRunAutoVariantFleet: the multi-device scheduler under -variant auto
// reports one selection per fleet slot and keeps the golden stream.
func TestRunAutoVariantFleet(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var golden, out, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-variant", "base", input}, &golden, &errOut); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if err := run([]string{"-engine", "sycl", "-devices", "radeonvii,mi100", input}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if out.String() != golden.String() {
		t.Errorf("tuned fleet output differs from single-device golden:\n%s\nvs\n%s", out.String(), golden.String())
	}
	if !strings.Contains(errOut.String(), "autotune: sycl-sim[") {
		t.Errorf("stderr missing per-slot autotune summaries: %s", errOut.String())
	}
}

// TestRunRetiredFlags: the second tuner pass and the sixth comparer are
// gone, so naming them is a usage mistake (exit 2), and what the command
// says it accepts is what is left.
func TestRunRetiredFlags(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	for _, tt := range []struct {
		args []string
		want string // in the error or the usage text
	}{
		{[]string{"-engine", "sycl", "-autotune", "calibrate"}, "base or opt1..opt4"},
		{[]string{"-engine", "sycl", "-variant", "base", "-autotune", "calibrate"}, "flag provided but not defined"},
		{[]string{"-engine", "sycl", "-autotune", "turbo"}, "flag provided but not defined"},
		{[]string{"-engine", "opencl", "-variant", "bitparallel"}, "want auto, base or opt1..opt4"},
	} {
		var out, errOut bytes.Buffer
		err := run(append(tt.args, input), &out, &errOut)
		if err == nil || exitCode(err) != exitUsage {
			t.Errorf("%v: err %v (exit %d), want a usage error", tt.args, err, exitCode(err))
			continue
		}
		if said := err.Error() + errOut.String(); !strings.Contains(said, tt.want) {
			t.Errorf("%v: %q missing from %q", tt.args, tt.want, said)
		}
	}
}

func TestRunProfileFlags(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	if err := run([]string{"-cpuprofile", cpuPath, "-memprofile", memPath, input}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpuPath, memPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "dir.pprof"), input}, &out, &errOut); err == nil {
		t.Error("unwritable -cpuprofile path should fail")
	}
	if err := run([]string{"-memprofile", filepath.Join(dir, "no", "dir.pprof"), input}, &out, &errOut); err == nil {
		t.Error("unwritable -memprofile path should fail")
	}
}

// TestTraceMetricsSmoke: a seeded fault run with -trace and -metrics must
// leave behind a parseable Chrome trace and one Prometheus text page whose
// counters agree with the profile block on stderr.
func TestTraceMetricsSmoke(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var out, errOut bytes.Buffer
	err := run([]string{"-engine", "sycl", "-fault-rate", "0.3", "-fault-seed", "7",
		"-watchdog", "2s", "-trace", tracePath, "-metrics", metricsPath, input}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "chr1\t4\t") {
		t.Errorf("output missing the planted site:\n%s", out.String())
	}

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &trace); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"stage", "drain", "emit"} {
		if !names[want] {
			t.Errorf("trace missing %q spans; has %v", want, names)
		}
	}

	promData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promData), "# TYPE casoffinder_chunks_total counter") {
		t.Errorf("-metrics output missing Prometheus TYPE lines:\n%s", promData)
	}

	// The page is the only metrics artifact, and its twin counters are the
	// profile block of the same run (a series with nothing to count is
	// absent, i.e. zero).
	if _, err := os.Stat(metricsPath + ".json"); !os.IsNotExist(err) {
		t.Errorf("-metrics wrote %s.json (stat: %v); the page is the only artifact", metricsPath, err)
	}
	counters := map[string]int64{}
	for _, line := range strings.Split(string(promData), "\n") {
		var name string
		var v int64
		if n, _ := fmt.Sscanf(line, "%s %d", &name, &v); n == 2 {
			counters[name] = v
		}
	}
	var chunks, candidates, entries int64
	_, profLine, _ := strings.Cut(errOut.String(), "profile: ")
	if _, err := fmt.Sscanf(profLine, "%d chunks, %d candidate sites, %d entries", &chunks, &candidates, &entries); err != nil {
		t.Fatalf("no profile: line on stderr (%v):\n%s", err, errOut.String())
	}
	if chunks == 0 {
		t.Error("profile block reports no chunks")
	}
	for name, want := range map[string]int64{
		"casoffinder_chunks_total":          chunks,
		"casoffinder_candidate_sites_total": candidates,
		"casoffinder_entries_total":         entries,
	} {
		if counters[name] != want {
			t.Errorf("%s = %d on the page, profile: line says %d", name, counters[name], want)
		}
	}
}

// TestRunFormatJSON: -format json emits one NDJSON object per hit — the
// same encoding casoffinderd streams — carrying the same sites as the text
// run.
func TestRunFormatJSON(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var text, jsonOut, errOut bytes.Buffer
	if err := run([]string{input}, &text, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-format", "json", input}, &jsonOut, &errOut); err != nil {
		t.Fatal(err)
	}
	textLines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
	jsonLines := strings.Split(strings.TrimSuffix(jsonOut.String(), "\n"), "\n")
	if len(jsonLines) != len(textLines) || len(jsonLines) == 0 {
		t.Fatalf("json run emitted %d lines, text run %d", len(jsonLines), len(textLines))
	}
	var hit struct {
		Guide      string `json:"guide"`
		Query      int    `json:"query"`
		Seq        string `json:"seq"`
		Pos        int    `json:"pos"`
		Dir        string `json:"dir"`
		Mismatches int    `json:"mismatches"`
		Site       string `json:"site"`
	}
	if err := json.Unmarshal([]byte(jsonLines[0]), &hit); err != nil {
		t.Fatalf("first line is not a hit object: %v\n%s", err, jsonLines[0])
	}
	if hit.Guide != "GATTACAGTANNN" || hit.Seq != "chr1" || hit.Pos != 4 || hit.Dir != "+" {
		t.Errorf("hit = %+v, want the planted chr1:4 site", hit)
	}
}

// TestRunFormatTimeoutUsageErrors: the new flags validate like every other.
func TestRunFormatTimeoutUsageErrors(t *testing.T) {
	plain := writeTestData(t, "NNNNNNNNNNNGG")
	tests := []struct {
		name string
		args []string
	}{
		{"unknown format", []string{"-format", "xml", plain}},
		{"negative timeout", []string{"-timeout", "-1s", plain}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run(tt.args, &out, &errOut)
			if err == nil {
				t.Fatal("expected error")
			}
			if got := exitCode(err); got != exitUsage {
				t.Errorf("exitCode = %d, want %d (err: %v)", got, exitUsage, err)
			}
		})
	}
}

// TestRunTimeoutExpires pins the deadline path: a hung simulated kernel
// (rate-1 gpu.hang, no watchdog) blocks the run until -timeout cancels it;
// the error carries the client.deadline fault site and exits 1.
func TestRunTimeoutExpires(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	err := run([]string{"-engine", "sycl", "-variant", "base",
		"-fault-rate", "1", "-fault-site", "gpu.hang",
		"-timeout", "200ms", input}, &out, &errOut)
	if err == nil {
		t.Fatal("hung run with -timeout returned no error")
	}
	if got := exitCode(err); got != exitRuntime {
		t.Errorf("exitCode = %d, want %d (err: %v)", got, exitRuntime, err)
	}
	if !strings.Contains(err.Error(), string(fault.SiteDeadline)) {
		t.Errorf("err = %v, want the %s fault site", err, fault.SiteDeadline)
	}
}

// TestRunTimeoutGenerous: a deadline the run comfortably makes changes
// nothing — same hits, exit 0.
func TestRunTimeoutGenerous(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var golden, out, errOut bytes.Buffer
	if err := run([]string{input}, &golden, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-timeout", "1m", input}, &out, &errOut); err != nil {
		t.Fatalf("generous -timeout failed the run: %v", err)
	}
	if out.String() != golden.String() {
		t.Errorf("-timeout changed the output:\n%s\nvs\n%s", out.String(), golden.String())
	}
}
