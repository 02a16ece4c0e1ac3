package search

import (
	"context"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/tune"
)

// simConfig is the configuration and run state of a simulator engine. SimCL
// and SimSYCL are both defined on it: they take the same knobs and run the
// same body (simCore), and differ only in the host API they drive.
type simConfig struct {
	// Device is the simulated GPU to run on.
	Device *gpu.Device
	// Variant selects the comparer kernel (Base unless exploring the
	// optimizations of §IV.B).
	Variant kernels.ComparerVariant
	// WorkGroupSize forces a local size. 0 means the engine's default: the
	// runtime's choice for SimCL, as the upstream OpenCL host program leaves
	// it, and DefaultSYCLWorkGroup for SimSYCL.
	WorkGroupSize int
	// Auto resolves Variant and WorkGroupSize through the occupancy
	// autotuner (internal/tune) for this device at Stream start: Variant is
	// ignored, and WorkGroupSize (when set) narrows the tuner to that local
	// size instead of overriding its choice. Output is byte-identical to
	// any fixed-variant run.
	Auto bool
	// Resilience, when set, is the run's recovery policy (pipeline.Executor):
	// transient errors (including SYCL asynchronous exceptions) retry with
	// backoff, hung kernels are reaped by the watchdog, and chunks the
	// device cannot complete fail over to the CPU SWAR engine (unless a
	// custom Fallback is configured), preserving the byte-identical hit
	// stream.
	Resilience *pipeline.Resilience
	// Trace and Metrics, when set, observe the run: pipeline-stage and
	// kernel-launch spans and latency histograms live, the profile's totals
	// when the run returns. Track overrides the trace row prefix (the engine
	// name by default); MultiSYCL sets it to tell its devices apart.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	Track   string

	// worstCaseArena pins every launch's hit-buffer arena to the worst-case
	// layout (one page per work-group) instead of the comparer's small first
	// attempt. Only this package's tests set it: it is the reference the
	// dynamically provisioned hit stream must equal byte for byte.
	worstCaseArena bool

	// profile is the current run's one ledger: set before anything that can
	// fail, written by every backend of the run, and what LastProfile returns.
	profile *Profile
	// tuned is the resolved autotuner decision for the current run; set by
	// streamCores before any backend opens, read-only while the run is live.
	tuned *tune.Decision
}

// simCore is the engine body SimCL and SimSYCL share: the engine's
// configuration plus the three things that tell the engines apart — the
// name, the host-ops constructor and the local size used when nothing
// chooses one.
type simCore struct {
	*simConfig
	name      string
	open      openOps
	defaultWG int
}

func (e *simCore) track() string {
	if e.Track != "" {
		return e.Track
	}
	return e.name
}

// comparer is the variant the run actually launches: the tuner's selection
// when one was resolved, the configured one otherwise.
func (e *simCore) comparer() kernels.ComparerVariant {
	if e.tuned != nil {
		return e.tuned.Variant
	}
	return e.Variant
}

// wgSize is the launch local size: the tuner's selection when one was
// resolved, the forced size otherwise, else the engine's default.
func (e *simCore) wgSize() int {
	if e.tuned != nil {
		return e.tuned.WGSize
	}
	if e.WorkGroupSize > 0 {
		return e.WorkGroupSize
	}
	return e.defaultWG
}

// stream runs the engine as a one-element fleet.
func (e *simCore) stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	e.profile = newProfile()
	return streamCores(ctx, e.track(), false, []*simCore{e}, asm, req, emit)
}

// streamCores runs one request over the cores, one executor slot each; every
// slot's goroutine stages its chunks and issues their launches. The cores
// share the run's settings (Resilience, Trace, Metrics) and its one profile,
// which the caller created: a failure before the executor starts leaves it
// empty, and every exit publishes what it holds. A fleet names its slots
// after their cores' tracks and reports chunks by device.
func streamCores(ctx context.Context, track string, fleet bool, cores []*simCore, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	run := cores[0].simConfig
	defer run.profile.publish(run.Metrics)
	if err := req.Validate(); err != nil {
		return err
	}
	// Resolve the tuner per device before any slot opens its backend; the
	// decision is read-only for the rest of the run.
	for i, c := range cores {
		if c.Device == nil {
			return fmt.Errorf("search: %s: device %d is nil", track, i)
		}
		c.tuned = nil
		if c.Auto {
			d, err := autotuneDecision(c.Device, req, c.WorkGroupSize)
			if err != nil {
				return fmt.Errorf("search: %s: autotune device %d: %w", track, i, err)
			}
			c.tuned = d
		}
	}
	slots := make([]pipeline.Slot, len(cores))
	marks := make([]int, len(cores))
	for i, c := range cores {
		slots[i].Open = func(plan *pipeline.Plan) (pipeline.Backend, error) {
			return newSimBackend(c, plan)
		}
		if fleet {
			slots[i].Name = c.track()
		}
		c.Device.SetObs(run.Trace, run.Metrics, c.track()+"/gpu")
		// Mark the injector before the run so only this run's fault delta is
		// folded into the profile — a reused engine must not re-count earlier
		// runs' faults.
		marks[i] = c.Device.Faults().Mark()
	}
	x := &pipeline.Executor{
		Slots:    slots,
		Policy:   policyFor(run.Resilience),
		Trace:    run.Trace,
		Metrics:  run.Metrics,
		Track:    track,
		OnReport: func(rep *pipeline.Report) { run.profile.addReport(rep, fleet) },
	}
	err := x.Stream(ctx, asm, req, emit)
	for i, c := range cores {
		run.profile.addFaults(c.Device.Faults().LogSince(marks[i]))
	}
	return err
}
