package search

import (
	"context"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
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
	// Auto resolves the variant and the local size through the occupancy
	// autotuner (internal/tune) for this device at Stream start: Variant and
	// WorkGroupSize are both ignored. Output is byte-identical to any
	// fixed-variant run.
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
	// when the run returns.
	Trace   *obs.Tracer
	Metrics *obs.Metrics

	// worstCaseArena pins every launch's hit-buffer arena to the worst-case
	// layout (one page per work-group) instead of the comparer's small first
	// attempt. Only this package's tests set it: it is the reference the
	// dynamically provisioned hit stream must equal byte for byte.
	worstCaseArena bool

	// profile is the current run's one ledger: set before anything that can
	// fail, written by the run's backend, and what LastProfile returns. Its
	// Tune is the run's autotuner decision, set by stream before the backend
	// opens and read-only while the run is live.
	profile *Profile
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

// comparer is the variant the run actually launches: the tuner's selection
// when one was resolved, the configured one otherwise.
func (e *simCore) comparer() kernels.ComparerVariant {
	if d := e.profile.Tune; d != nil {
		return d.Variant
	}
	return e.Variant
}

// wgSize is the launch local size: the tuner's selection when one was
// resolved, the forced size otherwise, else the engine's default.
func (e *simCore) wgSize() int {
	if d := e.profile.Tune; d != nil {
		return d.WGSize
	}
	if e.WorkGroupSize > 0 {
		return e.WorkGroupSize
	}
	return e.defaultWG
}

// stream runs one request on the engine's device behind one executor slot,
// whose goroutine stages every chunk and issues its launches. The run's one
// profile is created first: a failure before the executor starts leaves it
// empty, and every exit publishes what it holds.
func (e *simCore) stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	e.profile = newProfile()
	defer e.profile.publish(e.Metrics)
	if err := req.Validate(); err != nil {
		return err
	}
	if e.Device == nil {
		return fmt.Errorf("search: %s: device is nil", e.name)
	}
	// Resolve the tuner before the slot opens its backend; the decision is
	// read-only for the rest of the run.
	if e.Auto {
		d, err := autotuneDecision(e.Device, req)
		if err != nil {
			return fmt.Errorf("search: %s: autotune: %w", e.name, err)
		}
		e.profile.Tune = d
	}
	e.Device.SetObs(e.Trace, e.Metrics, e.name+"/gpu")
	// Mark the injector before the run so only this run's fault delta is
	// folded into the profile — a reused engine must not re-count earlier
	// runs' faults.
	mark := e.Device.Faults().Mark()
	x := &pipeline.Executor{
		Slots: []pipeline.Slot{{Open: func(plan *pipeline.Plan) (pipeline.Backend, error) {
			return newSimBackend(e, plan)
		}}},
		Policy:   policyFor(e.Resilience),
		Trace:    e.Trace,
		Metrics:  e.Metrics,
		Track:    e.name,
		OnReport: e.profile.addReport,
	}
	err := x.Stream(ctx, asm, req, emit)
	e.profile.addFaults(e.Device.Faults().LogSince(mark))
	return err
}
