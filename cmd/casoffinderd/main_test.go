package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/search"
)

// writeGenomeDir creates a genome directory carrying a perfect
// GATTACAGTA+CGG site at chr1:4.
func writeGenomeDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "toy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fasta := ">chr1\nTTTTGATTACAGTACGGTTTTTTTTTTTTTTT\n"
	if err := os.WriteFile(filepath.Join(dir, "chr1.fa"), []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const daemonSearchBody = `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`

// startDaemon runs the daemon on an ephemeral port and returns its base URL
// and a stop function that triggers graceful shutdown and waits for exit.
func startDaemon(t *testing.T, args ...string) (baseURL string, stop func() error) {
	t.Helper()
	return startDaemonWith(t, nil, args...)
}

// startDaemonWith is startDaemon with mut applied to the assembled daemon
// before it serves.
func startDaemonWith(t *testing.T, mut func(*daemon), args ...string) (baseURL string, stop func() error) {
	t.Helper()
	var errOut bytes.Buffer
	d, err := setup(append([]string{"-listen", "127.0.0.1:0"}, args...), &errOut)
	if err != nil {
		t.Fatalf("setup: %v (stderr: %s)", err, errOut.String())
	}
	if mut != nil {
		mut(d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.serve(ctx, &errOut) }()
	t.Cleanup(func() { cancel() })

	baseURL = "http://" + d.addr()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready (stderr: %s)", errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return baseURL, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon did not exit (stderr: %s)", errOut.String())
		}
	}
}

// TestDaemonHeaderTimeout: a client that sends its request headers one
// byte at a time is cut off at the header timeout, is served nothing but a
// 400, and leaves no goroutine behind once the daemon stops. The daemon
// sets no server-wide ReadTimeout: that deadline would cut long streams.
func TestDaemonHeaderTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	before := runtime.NumGoroutine()
	baseURL, stop := startDaemonWith(t, func(d *daemon) {
		if d.http.ReadHeaderTimeout != readHeaderTimeout || d.http.IdleTimeout != idleTimeout || d.http.ReadTimeout != 0 {
			t.Errorf("server timeouts: header %v, idle %v, read %v; want %v, %v, 0",
				d.http.ReadHeaderTimeout, d.http.IdleTimeout, d.http.ReadTimeout, readHeaderTimeout, idleTimeout)
		}
		d.http.ReadHeaderTimeout = timeout
	}, "-genome", writeGenomeDir(t))

	conn, err := net.Dial("tcp", strings.TrimPrefix(baseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	// One header byte every 10 ms: the whole header would take 5 s.
	header := "GET /healthz HTTP/1.1\r\nHost: test\r\nX-Pad: " + strings.Repeat("a", 460) + "\r\n\r\n"
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for i := range len(header) {
			if _, err := conn.Write([]byte{header[i]}); err != nil {
				return
			}
			<-tick.C
		}
	}()
	start := time.Now()
	// Returns once the server closes: EOF, or a reset when the close finds
	// unread header bytes in its receive buffer.
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	conn.Close()
	<-trickled
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reading the connection: %v", err)
	}
	if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 400 ") {
		t.Errorf("server answered a request whose headers never completed:\n%s", got)
	}
	if elapsed < timeout || elapsed > 2500*time.Millisecond {
		t.Errorf("connection closed after %v; want it cut at the %v header timeout", elapsed, timeout)
	}

	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the daemon stopped, %d before it started", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonEndToEnd boots the daemon on a FASTA genome, searches it over
// HTTP, checks the planted hit and the trailer, and shuts down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	base, stop := startDaemon(t, "-genome", writeGenomeDir(t))
	resp, err := http.Post(base+"/search", "application/json", strings.NewReader(daemonSearchBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("response too short: %q", data)
	}
	var hit struct {
		Guide string `json:"guide"`
		Seq   string `json:"seq"`
		Pos   int    `json:"pos"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hit); err != nil {
		t.Fatal(err)
	}
	if hit.Guide != "GATTACAGTANNN" || hit.Seq != "chr1" || hit.Pos != 4 {
		t.Errorf("hit = %+v, want the planted chr1:4 site", hit)
	}
	var tr struct {
		Done bool  `json:"done"`
		Hits int64 `json:"hits"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Hits != int64(len(lines)-1) {
		t.Errorf("trailer = %+v with %d hit lines", tr, len(lines)-1)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mdata, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mdata), "casoffinderd_requests_total") {
		t.Errorf("/metrics missing request counter:\n%s", mdata)
	}

	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonServesArtifact boots from a prebuilt .cart artifact (the
// zero-copy resident path) and checks the same planted hit.
func TestDaemonServesArtifact(t *testing.T) {
	dir := writeGenomeDir(t)
	asm, err := genome.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := search.BuildArtifact(asm, "NNNNNNNNNNNGG")
	if err != nil {
		t.Fatal(err)
	}
	cart := filepath.Join(t.TempDir(), "toy.cart")
	if err := art.WriteFile(cart); err != nil {
		t.Fatal(err)
	}

	base, stop := startDaemon(t, "-artifact", "toy="+cart)
	resp, err := http.Post(base+"/search", "application/json",
		strings.NewReader(`{"genome":"toy",`+daemonSearchBody[1:]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"pos":4`) {
		t.Errorf("artifact-backed search: status %d, body %q", resp.StatusCode, data)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonRefusesCorruptArtifact: an artifact with one flipped payload
// byte loads (the load reads only the header) but fails the start-up
// verify, so the daemon exits non-zero without ever printing its listen
// line.
func TestDaemonRefusesCorruptArtifact(t *testing.T) {
	asm, err := genome.LoadDir(writeGenomeDir(t))
	if err != nil {
		t.Fatal(err)
	}
	art, err := search.BuildArtifact(asm, "NNNNNNNNNNNGG")
	if err != nil {
		t.Fatal(err)
	}
	img := art.Encode()
	img[len(img)-1] ^= 0x80 // the last PAM shard entry
	cart := filepath.Join(t.TempDir(), "toy.cart")
	if err := os.WriteFile(cart, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := genome.LoadArtifact(cart); err != nil {
		t.Fatalf("LoadArtifact: %v (a payload flip must pass the header-only load)", err)
	}
	// A daemon that wrongly starts serves until ctx ends; the deadline turns
	// that into a failure here instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errOut bytes.Buffer
	err = run(ctx, []string{"-listen", "127.0.0.1:0", "-artifact", "toy=" + cart}, &errOut)
	var ce *genome.ArtifactCorruptError
	if !errors.As(err, &ce) || exitCode(err) == exitOK {
		t.Fatalf("run = %v (exit %d), want an ArtifactCorruptError and a non-zero exit", err, exitCode(err))
	}
	if strings.Contains(errOut.String(), "listening on") {
		t.Errorf("daemon printed its listen line before refusing the artifact:\n%s", errOut.String())
	}
}

// TestDaemonSimEngineDegraded boots the daemon on the OpenCL simulator with
// a certain device-lost fault: the request must still complete with the
// planted hit and a degraded trailer.
func TestDaemonSimEngineDegraded(t *testing.T) {
	base, stop := startDaemon(t,
		"-genome", writeGenomeDir(t),
		"-engine", "opencl",
		"-fault-rate", "1", "-fault-seed", "42", "-fault-site", "opencl.device-lost")
	resp, err := http.Post(base+"/search", "application/json", strings.NewReader(daemonSearchBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degraded, not failed); body %q", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"pos":4`) {
		t.Errorf("failover lost the planted hit: %q", data)
	}
	if !strings.Contains(string(data), `"degraded":true`) {
		t.Errorf("trailer does not report degradation: %q", data)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSetupUsageErrors(t *testing.T) {
	dir := writeGenomeDir(t)
	tests := []struct {
		name string
		args []string
	}{
		{"no genomes", nil},
		{"positional arg", []string{"-genome", dir, "input.txt"}},
		{"bad flag", []string{"-no-such-flag"}},
		{"retired -packed", []string{"-genome", dir, "-packed"}},
		{"bad engine", []string{"-genome", dir, "-engine", "cuda"}},
		{"retired engine", []string{"-genome", dir, "-engine", "indexed"}},
		{"bad device", []string{"-genome", dir, "-engine", "sycl", "-device", "H100"}},
		// The daemon always autotunes: -variant is an unknown flag, whatever
		// its value.
		{"bad variant", []string{"-genome", dir, "-variant", "opt9"}},
		{"retired variant", []string{"-genome", dir, "-variant", "bitparallel"}},
		{"retired -variant", []string{"-genome", dir, "-engine", "sycl", "-variant", "auto"}},
		{"retired -fault-after", []string{"-genome", dir, "-engine", "opencl", "-fault-rate", "0.2", "-fault-after", "1"}},
		{"fault flags on cpu", []string{"-genome", dir, "-fault-rate", "0.5"}},
		{"fault rate out of range", []string{"-genome", dir, "-engine", "opencl", "-fault-rate", "2"}},
		{"fault rate NaN", []string{"-genome", dir, "-engine", "opencl", "-fault-rate", "NaN"}},
		{"fault seed on cpu", []string{"-genome", dir, "-fault-seed", "9"}},
		{"device on cpu", []string{"-genome", dir, "-device", "MI60"}},
		{"workers on opencl", []string{"-genome", dir, "-engine", "opencl", "-workers", "2"}},
		{"max-inflight on sycl", []string{"-genome", dir, "-engine", "sycl", "-max-inflight", "8"}},
		{"max-inflight on opencl", []string{"-genome", dir, "-engine", "opencl", "-max-inflight", "1"}},
		{"bad fault site", []string{"-genome", dir, "-engine", "opencl", "-fault-rate", "1", "-fault-site", "gpu.meltdown"}},
		{"retired fault site", []string{"-genome", dir, "-engine", "sycl", "-fault-site", "sycl.usm"}},
		{"duplicate genome name", []string{"-genome", dir, "-genome", dir}},
		{"negative watchdog", []string{"-genome", dir, "-engine", "sycl", "-watchdog", "-1s"}},
		{"negative workers", []string{"-genome", dir, "-workers", "-3"}},
		{"negative max-inflight", []string{"-genome", dir, "-max-inflight", "-1"}},
		{"negative max-queue", []string{"-genome", dir, "-max-queue", "-1"}},
		{"retired -max-inflight-bytes", []string{"-genome", dir, "-max-inflight-bytes", "67108864"}},
		{"negative max-body-bytes", []string{"-genome", dir, "-max-body-bytes", "-1"}},
		{"negative max-guides", []string{"-genome", dir, "-max-guides", "-1"}},
		{"negative quota-rate", []string{"-genome", dir, "-quota-rate", "-0.5"}},
		{"negative quota-burst", []string{"-genome", dir, "-quota-burst", "-2"}},
		{"NaN quota-rate", []string{"-genome", dir, "-quota-rate", "NaN"}},
		{"NaN quota-burst", []string{"-genome", dir, "-quota-rate", "5", "-quota-burst", "NaN"}},
		{"fractional quota-burst", []string{"-genome", dir, "-quota-rate", "10", "-quota-burst", "0.5"}},
		{"quota-burst without quota-rate", []string{"-genome", dir, "-quota-burst", "1"}},
		{"negative drain-timeout", []string{"-genome", dir, "-drain-timeout", "-1s"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var errOut bytes.Buffer
			_, err := setup(tt.args, &errOut)
			if err == nil {
				t.Fatal("expected error")
			}
			if got := exitCode(err); got != exitUsage {
				t.Errorf("exitCode = %d, want %d (err: %v)", got, exitUsage, err)
			}
			if strings.HasPrefix(tt.name, "retired -") && !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("err = %v, want an unknown flag", err)
			}
		})
	}
}

func TestSetupRuntimeErrors(t *testing.T) {
	var errOut bytes.Buffer
	if _, err := setup([]string{"-genome", filepath.Join(t.TempDir(), "missing")}, &errOut); err == nil {
		t.Error("missing genome path accepted")
	}
	if _, err := setup([]string{"-artifact", filepath.Join(t.TempDir(), "missing.cart")}, &errOut); err == nil {
		t.Error("missing artifact path accepted")
	}
}

func TestSplitSpec(t *testing.T) {
	tests := []struct {
		spec, name, path string
	}{
		{"hg38=/data/hg38.cart", "hg38", "/data/hg38.cart"},
		{"/data/hg38.cart", "hg38", "/data/hg38.cart"},
		{"/data/genomes/toy/", "toy", "/data/genomes/toy/"},
		{"toy", "toy", "toy"},
	}
	for _, tt := range tests {
		name, path := splitSpec(tt.spec)
		if name != tt.name || path != tt.path {
			t.Errorf("splitSpec(%q) = (%q, %q), want (%q, %q)", tt.spec, name, path, tt.name, tt.path)
		}
	}
}

func TestExitCodes(t *testing.T) {
	tests := []struct {
		err  error
		want int
	}{
		{nil, exitOK},
		{flag.ErrHelp, exitOK},
		{errors.New("boom"), exitRuntime},
		{usageError{errors.New("bad")}, exitUsage},
	}
	for _, tt := range tests {
		if got := exitCode(tt.err); got != tt.want {
			t.Errorf("exitCode(%v) = %d, want %d", tt.err, got, tt.want)
		}
	}
}
