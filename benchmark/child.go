package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opTimeout bounds every op and every set-up step; a child that overruns it
// is killed and the op counts as failed instead of hanging the run.
const opTimeout = 30 * time.Second

// killGrace is how long a daemon gets between SIGTERM and SIGKILL.
const killGrace = 5 * time.Second

// buildDir holds everything the benchmark writes: the built binaries, which
// persist so that `go build` is a no-op on the next run, the per-run work
// directory and, by default, the results.
const buildDir = ".bench_build"

// binaries are the commands the workloads drive.
var binaries = []string{"casoffinder", "casoffinderd", "genomegen", "benchtab"}

// harness owns what must not outlive the run: the work directory and any
// daemon still running. close is safe to call from the signal handler and
// the normal exit path at once; after it nothing can be started.
type harness struct {
	bin  string // directory of the built binaries
	work string // per-run scratch directory, removed by close unless keep
	keep bool

	// ctx ends when close begins; every exec child runs under it.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	daemons  map[*daemon]struct{}
	children sync.WaitGroup // exec children still running
	closed   bool
	closing  sync.Once
}

func newHarness(keep bool) (*harness, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	root, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &harness{bin: bin, work: work, keep: keep, ctx: ctx, cancel: cancel, daemons: map[*daemon]struct{}{}}, nil
}

// errClosed is what starting anything returns once close has begun.
var errClosed = errors.New("benchmark is shutting down")

// mkdir creates a directory under the work directory, unless close has begun:
// nothing may appear there after it was removed.
func (h *harness) mkdir(dir string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errClosed
	}
	return os.MkdirAll(dir, 0o755)
}

// build compiles the real binaries from the checkout.
func (h *harness) build() error {
	args := []string{"build", "-o", h.bin + string(os.PathSeparator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

func (h *harness) path(binary string) string { return filepath.Join(h.bin, binary) }

// close kills every exec child, terminates every daemon still running and
// removes the work directory. A second caller waits for the first to finish,
// so the process never exits with the clean-up half done.
func (h *harness) close() {
	h.closing.Do(func() {
		h.mu.Lock()
		h.closed = true
		var live []*daemon
		for d := range h.daemons {
			live = append(live, d)
		}
		h.mu.Unlock()
		h.cancel()
		for _, d := range live {
			d.stop()
		}
		h.children.Wait()
		if h.keep {
			fmt.Fprintln(os.Stderr, "benchmark: kept", h.work)
			return
		}
		os.RemoveAll(h.work)
	})
}

// execResult is one finished child process.
type execResult struct {
	Wall      time.Duration
	FirstByte time.Duration // exec to first stdout byte; 0 if stdout stayed empty
	Stdout    []byte
	Stderr    []byte
	Usage     childUsage
	Err       error // non-zero exit, timeout or start failure
}

// run executes one child to completion under opTimeout, timing exec to exit
// and exec to first stdout byte.
func (h *harness) run(binary string, args ...string) execResult {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return execResult{Err: errClosed}
	}
	h.children.Add(1)
	h.mu.Unlock()
	defer h.children.Done()
	ctx, cancel := context.WithTimeout(h.ctx, opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.path(binary), args...)
	cmd.WaitDelay = time.Second
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return execResult{Err: err}
	}
	var res execResult
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return execResult{Err: err}
	}
	exited := make(chan struct{})
	peak := make(chan float64, 1)
	go func() { peak <- pollPeakMB(cmd.Process.Pid, exited) }()
	var out bytes.Buffer
	buf := make([]byte, 32<<10)
	for {
		n, rerr := stdout.Read(buf)
		if n > 0 && res.FirstByte == 0 {
			res.FirstByte = time.Since(t0)
		}
		out.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	err = cmd.Wait()
	res.Wall = time.Since(t0)
	close(exited)
	res.Stdout, res.Stderr = out.Bytes(), stderr.Bytes()
	if cmd.ProcessState != nil {
		res.Usage = usageOf(cmd.ProcessState)
	}
	if mb := <-peak; mb > 0 {
		res.Usage.PeakRSSMB = mb
	}
	if h.ctx.Err() != nil {
		err = errClosed
	} else if ctx.Err() != nil {
		err = fmt.Errorf("%s timed out after %v", binary, opTimeout)
	} else if err != nil {
		err = fmt.Errorf("%s: %w: %s", binary, err, lastLine(res.Stderr))
	}
	res.Err = err
	return res
}

// lastLine is the last non-empty line of a child's stderr, where the
// binaries print their error.
func lastLine(stderr []byte) string {
	lines := strings.Split(strings.TrimSpace(string(stderr)), "\n")
	return lines[len(lines)-1]
}

// daemon is one running casoffinderd.
type daemon struct {
	h     *harness
	cmd   *exec.Cmd
	addr  string
	done  chan struct{} // closed when Wait has returned
	usage childUsage    // whole-life rusage, valid after done
	once  sync.Once
}

// startDaemon execs casoffinderd on an ephemeral port and returns once it
// printed its listen address and answers /readyz with 200.
func (h *harness) startDaemon(client *http.Client, args ...string) (*daemon, error) {
	cmd := exec.Command(h.path("casoffinderd"), append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errClosed
	}
	if err := cmd.Start(); err != nil {
		h.mu.Unlock()
		return nil, err
	}
	d := &daemon{h: h, cmd: cmd, done: make(chan struct{})}
	h.daemons[d] = struct{}{}
	h.mu.Unlock()

	addrc := make(chan string, 1)
	var log bytes.Buffer
	go func() {
		// Reads stderr to EOF so the daemon never blocks on a full pipe,
		// then reaps it; cmd.Wait must not run before the pipe is drained.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := listenAddr(line); ok {
				addrc <- a
			} else if log.Len() < 8<<10 {
				log.WriteString(line + "\n")
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		if cmd.ProcessState != nil {
			d.usage = usageOf(cmd.ProcessState)
		}
		close(d.done)
	}()

	select {
	case d.addr = <-addrc:
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("casoffinderd exited during start-up: %s", strings.TrimSpace(log.String()))
	case <-time.After(opTimeout):
		d.stop()
		return nil, fmt.Errorf("casoffinderd did not report a listen address within %v", opTimeout)
	}
	deadline := time.Now().Add(opTimeout)
	for {
		resp, err := client.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("casoffinderd not ready within %v (last error: %v)", opTimeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// listenAddr extracts the address from casoffinderd's
// "casoffinderd: listening on ADDR (genomes: ...)" line.
func listenAddr(line string) (string, bool) {
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, rest != ""
}

// A child's ru_maxrss cannot be trusted here: Linux starts a child's maximum
// from the resident set of the process that forked it, so it reads at least
// as high as the benchmark's own memory at that moment (the oracle's genome,
// the traced pass) and the number would follow the harness, not the program.
// VmHWM in /proc/PID/status is the child's own peak; ru_maxrss is the fallback
// without /proc.

// procStatusMB reads one "Vm...:  N kB" line of /proc/PID/status.
func procStatusMB(pid int, key string) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	return parseStatusMB(data, key)
}

func parseStatusMB(status []byte, key string) (float64, bool) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}

// peakPoll is how often a running child's peak resident set is read; what it
// grows by after the last read is missed. At 5 ms the reads cost cli-cart 1%
// of its op time.
const peakPoll = 20 * time.Millisecond

// pollPeakMB follows a child's VmHWM until exited is closed and returns the
// last value seen; 0 if there never was one.
func pollPeakMB(pid int, exited <-chan struct{}) float64 {
	tick := time.NewTicker(peakPoll)
	defer tick.Stop()
	var last float64
	for {
		select {
		case <-exited:
			return last
		case <-tick.C:
			if mb, ok := procStatusMB(pid, "VmHWM"); ok {
				last = mb
			}
		}
	}
}

// stop terminates the daemon — SIGTERM, then SIGKILL after killGrace — waits
// until it has exited and returns its whole-life rusage.
func (d *daemon) stop() childUsage {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(killGrace):
			d.cmd.Process.Kill()
			<-d.done
		}
		d.h.mu.Lock()
		delete(d.h.daemons, d)
		d.h.mu.Unlock()
	})
	<-d.done
	return d.usage
}
