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
)

// MultiSYCL extends the SYCL application to several devices — the paper's
// stated limitation ("The SYCL application currently executes on a single
// GPU device", §IV.A) turned future work. The fleet is the executor
// (pipeline.Executor) with one slot per device: every device pulls the next
// chunk of the plan when it is free, so a heterogeneous fleet stays busy end
// to end instead of waiting on its slowest member.
//
// With a policy set, a chunk that exhausts its retries (or trips the
// watchdog, or returns corrupted data) fails over to the CPU SWAR engine on
// the device's own slot, and the device goes on pulling the queue — the
// single-device rule, per device. Hits flow through the ordered-emit
// contract, so the stream is byte-identical to a single-device run
// regardless of which device ran which chunk.
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
	// Variant and WorkGroupSize are ignored. Output stays byte-identical.
	Auto bool
	// Resilience, when set, is the fleet's recovery policy: per-chunk
	// transient retries on the device that holds the chunk, then failover to
	// that device's own CPU engine (unless a custom Fallback is configured).
	Resilience *pipeline.Resilience
	// Trace and Metrics, when set, observe the whole fleet: each device's
	// spans land on its own "sycl-sim[i]" track, recovery events (failover,
	// quarantine) on the same tracks, and the run's one profile is published
	// into the registry when the run returns.
	Trace   *obs.Tracer
	Metrics *obs.Metrics

	// worstCaseArena is passed to every device's shell; see
	// simConfig.worstCaseArena (test reference only).
	worstCaseArena bool

	profile *Profile
}

// Name implements Engine.
func (e *MultiSYCL) Name() string { return "sycl-multi" }

// LastProfile implements Profiler: the one profile every device of the last
// run wrote, with the executor's recovery and per-device accounting folded
// in.
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
	e.profile = newProfile()
	if len(e.Devices) == 0 {
		return errors.New("search: sycl-multi: no devices")
	}
	// One SimSYCL shell per device, all on the run's one profile: a shell's
	// slot opens its backend (at most once per run) on that device.
	cores := make([]*simCore, len(e.Devices))
	for i, dev := range e.Devices {
		cores[i] = (&SimSYCL{
			Device: dev, Variant: e.Variant, WorkGroupSize: e.WorkGroupSize,
			Auto: e.Auto, Resilience: e.Resilience,
			Trace: e.Trace, Metrics: e.Metrics, trackName: fmt.Sprintf("sycl-sim[%d]", i),
			worstCaseArena: e.worstCaseArena, profile: e.profile,
		}).core()
	}
	return streamCores(ctx, e.Name(), true, cores, asm, req, emit)
}
