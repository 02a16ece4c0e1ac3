package search

import (
	"context"
	"errors"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/sched"
	"casoffinder/internal/tune"
)

// MultiSYCL extends the SYCL application to several devices — the paper's
// stated limitation ("The SYCL application currently executes on a single
// GPU device", §IV.A) turned future work. The fleet is the executor
// (internal/sched) with one slot per device: every device pulls the next
// chunk of the plan when it is free, so a heterogeneous fleet stays busy end
// to end instead of waiting on its slowest member.
//
// With a policy set, a chunk that exhausts its retries (or trips the
// watchdog, or returns corrupted data) evicts its device and goes back to
// the queue for the survivors; the last device left is never evicted and
// fails such chunks over to the CPU SWAR engine one by one. Hits flow through
// the ordered-emit contract, so the stream is byte-identical to a
// single-device run regardless of which device ran which chunk.
type MultiSYCL struct {
	// Devices are the simulated GPUs to spread the search over.
	Devices []*gpu.Device
	// Variant selects the comparer kernel on every device.
	Variant kernels.ComparerVariant
	// WorkGroupSize overrides the launch local size (0 means 256).
	WorkGroupSize int
	// Auto resolves the comparer variant and work-group size per device
	// through the occupancy autotuner (internal/tune) at Stream start: a
	// heterogeneous fleet can run a different kernel on each member.
	// Variant is ignored; WorkGroupSize (when set) narrows the tuner to
	// that local size. Calibrate additionally runs the tuner's online
	// measured pass per device type. Output stays byte-identical.
	Auto      bool
	Calibrate bool
	// Resilience, when set, is the fleet's recovery policy: per-chunk
	// transient retries on the device that holds the chunk, then eviction;
	// the last live device fails chunks over to the CPU engine (unless a
	// custom Fallback is configured).
	Resilience *pipeline.Resilience
	// Trace and Metrics, when set, are shared by every per-device
	// sub-engine: each device's spans land on its own "sycl-sim[i]"
	// track, recovery events (evict, failover) on the same tracks, and the
	// counters sum across devices in one registry.
	Trace   *obs.Tracer
	Metrics *obs.Metrics

	// worstCaseArena is passed to every device's sub-engine; see
	// simConfig.worstCaseArena (test reference only).
	worstCaseArena bool

	profile *Profile
}

// Name implements Engine.
func (e *MultiSYCL) Name() string { return "sycl-multi" }

// LastProfile implements Profiler: the merged profile of all devices, with
// the executor's eviction and per-device accounting folded in.
func (e *MultiSYCL) LastProfile() *Profile { return e.profile }

// Run implements Engine.
func (e *MultiSYCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

// Stream implements Engine: compile once, then run the chunk plan across
// the fleet. Hits are emitted in chunk order as chunks settle — the
// ordered-emit contract — so the stream matches a single-device run byte
// for byte.
func (e *MultiSYCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if len(e.Devices) == 0 {
		return errors.New("search: sycl-multi: no devices")
	}
	for i, d := range e.Devices {
		if d == nil {
			return fmt.Errorf("search: sycl-multi: device %d is nil", i)
		}
	}

	// Resolve the tuner per device before the fleet starts: repeated
	// device types hit the tune package's memoized decision, so an N-GPU
	// homogeneous fleet scores (and calibrates) once.
	var tuned []*tune.Decision
	if e.Auto {
		tuned = make([]*tune.Decision, len(e.Devices))
		for i, dev := range e.Devices {
			d, err := autotuneDecision(dev, req, e.WorkGroupSize, e.Calibrate)
			if err != nil {
				return fmt.Errorf("search: %s: autotune device %d: %w", e.Name(), i, err)
			}
			tuned[i] = d
		}
	}

	// One SimSYCL shell per device: its slot opens the backend (at most once
	// per run), and the shell's profile collects what that device did.
	// Sub-engines share the run's tracer and metrics.
	subEngines := make([]*SimSYCL, len(e.Devices))
	marks := make([]int, len(e.Devices))
	fleet := make([]sched.Slot, len(e.Devices))
	for i, dev := range e.Devices {
		sub := &SimSYCL{
			Device: dev, Variant: e.Variant, WorkGroupSize: e.WorkGroupSize,
			worstCaseArena: e.worstCaseArena,
			Trace:          e.Trace, Metrics: e.Metrics, Track: fmt.Sprintf("sycl-sim[%d]", i),
		}
		if tuned != nil {
			sub.Auto, sub.Calibrate, sub.tuned = true, e.Calibrate, tuned[i]
		}
		subEngines[i] = sub
		core := sub.core()
		dev.SetObs(e.Trace, e.Metrics, sub.Track+"/gpu")
		// Mark each injector before the run so only this run's fault
		// delta is folded into the profile.
		marks[i] = dev.Faults().Mark()
		fleet[i] = sched.Slot{
			Name: sub.Track,
			Open: func(plan *pipeline.Plan) (pipeline.Backend, error) {
				return newSimBackend(core, plan)
			},
		}
	}

	var schedRep *sched.Report
	x := &sched.Executor{
		Slots:    fleet,
		Policy:   policyFor(e.Resilience),
		Trace:    e.Trace,
		Metrics:  e.Metrics,
		Track:    e.Name(),
		OnReport: func(rep *sched.Report) { schedRep = rep },
	}
	err := x.Stream(ctx, asm, req, emit)

	// Fold each device's fault delta into that device's own profile —
	// which carries the shared metrics registry, so MetricFaults stays in
	// step — then merge everything. The merged profile carries no
	// registry of its own: every count already streamed in live, and
	// folding again here would double-count.
	merged := newProfile(nil)
	for i, sub := range subEngines {
		prof := sub.LastProfile()
		if prof == nil {
			// No slot opened this device (fewer chunks than devices); it
			// cannot have fired faults either.
			continue
		}
		prof.addFaults(e.Devices[i].Faults().LogSince(marks[i]))
		merged.merge(prof)
	}
	if schedRep != nil {
		merged.addSched(schedRep)
	}
	e.profile = merged
	return err
}
