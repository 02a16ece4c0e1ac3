package gpu

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/obs"
)

// LocalArg marks an OpenCL-style __local kernel argument — the result of
// clSetKernelArg with a size and a NULL pointer. Kernel builders turn it
// into worker-resident shared storage.
type LocalArg struct {
	Bytes int
}

// LaunchSpec describes one kernel launch: the kernel name (for the launch
// log), the ND-range decomposition, and the kernel as a PhaseKernel — the
// one launch contract.
type LaunchSpec struct {
	Name   string
	Global Range
	Local  Range
	// Phases is the kernel body split at its barrier points, built once per
	// executing worker and run once per work-group. A kernel without a
	// barrier is a single phase.
	Phases PhaseKernel
	// LDSBytesPerWG declares how much shared local memory each work-group
	// uses; it is validated against the device limit.
	LDSBytesPerWG int
	// Ctx, when it carries a deadline, bounds the launch: an injected hang
	// blocks on it until the deadline (the caller's watchdog or request
	// timeout) ends it. A nil Ctx, or one with no deadline, turns injected
	// hangs into immediate launch failures, so nothing can block forever.
	Ctx context.Context
}

// launchState is the per-launch context shared by all groups.
type launchState struct {
	dev       *Device
	global    Range
	local     Range
	gridDim   [MaxDims]int // work-groups per dimension
	groupSize int          // work-items per group
}

// inlineLaunchItems bounds the launches that run entirely on
// the calling goroutine: below this many work-items the work is dominated
// by scheduling overhead, so spawning workers would cost more than it buys.
const inlineLaunchItems = 2048

// Launch executes the kernel over the ND-range and returns the aggregated
// access statistics. Work-groups are distributed over the device's host
// worker pool; each worker claims groups from an atomic cursor and runs a
// group's phases one after another with its own phase closures, Group and
// Stats shard, so a launch starts no goroutine per work-item or per group.
// Launch blocks until the kernel completes (the frontends add their own
// asynchronous-queue semantics on top).
func (d *Device) Launch(spec LaunchSpec) (*Stats, error) {
	if d.obsTrace == nil && d.obsMetrics == nil {
		return d.launch(&spec)
	}
	// The clock starts before fault injection so a hung launch's span covers
	// the time it sat wedged until the watchdog reaped it.
	t0 := time.Now()
	stats, err := d.launch(&spec)
	dur := time.Since(t0)
	attrs := []obs.Attr{{Key: "kernel", Value: spec.Name}}
	if stats != nil {
		attrs = append(attrs,
			obs.Attr{Key: "work_items", Value: strconv.FormatInt(stats.WorkItems, 10)},
			obs.Attr{Key: "work_groups", Value: strconv.FormatInt(stats.WorkGroups, 10)})
	} else {
		attrs = append(attrs, obs.Attr{Key: "error", Value: err.Error()})
	}
	d.obsTrace.Complete(d.obsTrack, "launch:"+spec.Name, -1, t0, dur, attrs...)
	d.obsMetrics.Observe(obs.L(obs.MetricKernelLaunchSeconds, "kernel", spec.Name), dur.Seconds())
	d.obsMetrics.Count(obs.L(obs.MetricKernelLaunches, "kernel", spec.Name), 1)
	return stats, err
}

// launch is the uninstrumented launch body.
func (d *Device) launch(spec *LaunchSpec) (*Stats, error) {
	if err := d.injectLaunchFault(spec); err != nil {
		return nil, err
	}
	if spec.Phases == nil {
		return nil, fmt.Errorf("gpu: launch %q: nil kernel", spec.Name)
	}
	if err := checkNDRange(spec.Global, spec.Local, d.spec.MaxWorkGroupSize); err != nil {
		return nil, fmt.Errorf("gpu: launch %q: %w", spec.Name, err)
	}
	if spec.LDSBytesPerWG > d.spec.LDSPerCUBytes {
		return nil, fmt.Errorf("gpu: launch %q: %d bytes of local memory exceed the %d-byte CU limit",
			spec.Name, spec.LDSBytesPerWG, d.spec.LDSPerCUBytes)
	}

	ls := &launchState{dev: d, global: spec.Global, local: spec.Local, groupSize: spec.Local.Total()}
	numGroups := 1
	for dim := 0; dim < MaxDims; dim++ {
		ls.gridDim[dim] = spec.Global.Size(dim) / spec.Local.Size(dim)
		numGroups *= ls.gridDim[dim]
	}

	workers := d.workers
	if workers > numGroups {
		workers = numGroups
	}
	if workers < 1 || numGroups*ls.groupSize <= inlineLaunchItems {
		workers = 1
	}

	var total Stats
	if err := runGroups(spec.Phases, ls, numGroups, workers, &total); err != nil {
		return nil, fmt.Errorf("gpu: launch %q: %w", spec.Name, err)
	}
	total.WorkItems = int64(spec.Global.Total())
	return &total, nil
}

// injectLaunchFault samples the device's fault injector at the two kernel
// fault sites. A launch fault fails fast, before any work-group runs. A
// hang fault parks the launch on the spec's context when that context
// carries a deadline — the simulated kernel is wedged and only the deadline
// (the caller's watchdog or request timeout) can reap it. With no deadline
// the hang fails the launch at once, as the same transient fault, so an
// unwatched launch can never block forever.
func (d *Device) injectLaunchFault(spec *LaunchSpec) error {
	in := d.faults
	if in == nil {
		return nil
	}
	if in.Fire(fault.SiteLaunch) {
		return fault.Errorf(fault.SiteLaunch, fault.Transient,
			"gpu: launch %q: injected launch failure", spec.Name)
	}
	if in.Fire(fault.SiteHang) {
		var reapable bool
		if spec.Ctx != nil {
			_, reapable = spec.Ctx.Deadline()
		}
		if !reapable {
			return fault.Errorf(fault.SiteHang, fault.Transient,
				"gpu: launch %q: injected hang with no launch deadline", spec.Name)
		}
		<-spec.Ctx.Done()
		return fault.Errorf(fault.SiteHang, fault.Transient,
			"gpu: launch %q: hung work-group cancelled: %w", spec.Name, spec.Ctx.Err())
	}
	return nil
}

// runGroups executes the launch's work-groups on the given number of
// workers and sums their shards into total. A worker that panics, or whose
// kernel factory returns no phase or a nil one, fails the launch; the others
// drain the cursor and every goroutine has exited on return.
func runGroups(kernel PhaseKernel, ls *launchState, numGroups, workers int, total *Stats) error {
	var next atomic.Int64
	state := make([]struct {
		stats Stats
		group Group
		err   error
	}, workers)

	run := func(wi int) {
		w := &state[wi]
		defer func() {
			if r := recover(); r != nil {
				w.err = fmt.Errorf("work-group kernel panicked: %v", r)
			}
		}()
		g := &w.group
		g.launch, g.stats = ls, &w.stats
		phases := kernel()
		if len(phases) == 0 {
			w.err = fmt.Errorf("phase kernel returned no phases")
			return
		}
		for pi, phase := range phases {
			if phase == nil {
				w.err = fmt.Errorf("phase kernel returned a nil phase %d", pi)
				return
			}
		}
		// Every work-item executes the barrier at each phase boundary.
		barriers := int64(len(phases)-1) * int64(ls.groupSize)
		for {
			linear := int(next.Add(1)) - 1
			if linear >= numGroups {
				return
			}
			g.target(linear)
			for _, phase := range phases {
				phase(g)
			}
			w.stats.Barriers += barriers
			w.stats.WorkGroups++
		}
	}

	if workers == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for wi := 1; wi < workers; wi++ {
			go func(wi int) {
				defer wg.Done()
				run(wi)
			}(wi)
		}
		run(0)
		wg.Wait()
	}
	for wi := range state {
		total.Add(&state[wi].stats)
		if state[wi].err != nil {
			return state[wi].err
		}
	}
	return nil
}
