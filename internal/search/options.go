package search

import (
	"flag"
	"fmt"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// defaultDevice and defaultFaultSeed are -device's and -fault-seed's
// defaults.
const (
	defaultDevice    = "MI100"
	defaultFaultSeed = 1
)

// Options is the engine surface both commands share: which engine runs on
// which simulated device, and the fault plan and recovery policy of a
// simulator run. Register declares its flags and sets its defaults; Open
// validates it and builds the engine.
type Options struct {
	Engine  string
	Device  string
	Workers int
	// Variant names the comparer kernel: auto (the occupancy autotuner),
	// base or opt1..opt4. It has no flag here: the CLI declares its own.
	Variant    string
	FaultRate  float64
	FaultSeed  uint64
	FaultSite  string
	Watchdog   time.Duration
	MaxRetries int
}

// Register declares the shared engine flags on fs, setting o to their
// defaults.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Engine, "engine", "cpu", "search engine: cpu, opencl or sycl")
	fs.StringVar(&o.Device, "device", defaultDevice, "simulated device for the opencl/sycl engines")
	fs.IntVar(&o.Workers, "workers", 0, "cpu engine workers (0 = all cores)")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "simulator fault injection probability in [0, 1] (0 = off)")
	fs.Uint64Var(&o.FaultSeed, "fault-seed", defaultFaultSeed, "seed for the deterministic fault schedule and retry jitter")
	fs.StringVar(&o.FaultSite, "fault-site", "", "restrict injection to one fault site (default: all sites)")
	fs.DurationVar(&o.Watchdog, "watchdog", 0, "deadline per backend phase; a hung simulated kernel is cancelled and retried (0 = off)")
	fs.IntVar(&o.MaxRetries, "max-retries", 0, "chunk retries before CPU failover (0 = default 2, negative = none)")
}

// Open validates the options and builds the engine they name. A simulator
// engine always runs under a recovery policy, returned so the caller can
// attach a report sink: transient faults retry, and chunks the device cannot
// complete fail over to the CPU scan. The cpu engine has no policy, and any
// device, fault or recovery option on it is an error, as -workers is on a
// simulator engine. Every error Open returns is a configuration mistake.
func (o *Options) Open(trace *obs.Tracer, metrics *obs.Metrics) (Engine, *pipeline.Resilience, error) {
	variant, auto, err := kernels.ParseVariant(o.Variant)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case !(o.FaultRate >= 0 && o.FaultRate <= 1): // NaN fails both
		return nil, nil, fmt.Errorf("-fault-rate %v outside [0, 1]", o.FaultRate)
	case o.Watchdog < 0:
		return nil, nil, fmt.Errorf("-watchdog %v is negative", o.Watchdog)
	case o.Workers < 0:
		return nil, nil, fmt.Errorf("-workers %d is negative", o.Workers)
	}
	plan := fault.Plan{Seed: o.FaultSeed, Rate: o.FaultRate}
	if o.FaultSite != "" {
		if plan.Site, err = fault.ParseSite(o.FaultSite); err != nil {
			return nil, nil, err
		}
	}
	switch o.Engine {
	case "cpu":
		// The device and the fault sites all live in the simulated runtimes;
		// a silent no-op here would make "-fault-rate 0.3 -engine cpu" look
		// like a passing resilience run.
		if o.Device != defaultDevice || plan != (fault.Plan{Seed: defaultFaultSeed}) || o.Watchdog != 0 || o.MaxRetries != 0 {
			return nil, nil, fmt.Errorf("-device, -fault-rate, -fault-seed, -fault-site, -watchdog and -max-retries need the opencl or sycl engine, not %q", o.Engine)
		}
		return &CPU{Workers: o.Workers, Trace: trace, Metrics: metrics}, nil, nil
	case "opencl", "sycl":
		if o.Workers != 0 {
			return nil, nil, fmt.Errorf("-workers needs the cpu engine, not %q", o.Engine)
		}
		spec, err := device.ByName(o.Device)
		if err != nil {
			return nil, nil, err
		}
		dev := gpu.New(spec)
		if in := fault.NewInjector(plan); in != nil {
			dev.SetFaults(in)
		}
		res := &pipeline.Resilience{MaxRetries: o.MaxRetries, Watchdog: o.Watchdog, Seed: o.FaultSeed}
		cfg := simConfig{Device: dev, Variant: variant, Auto: auto, Resilience: res, Trace: trace, Metrics: metrics}
		if o.Engine == "opencl" {
			return (*SimCL)(&cfg), res, nil
		}
		return (*SimSYCL)(&cfg), res, nil
	default:
		return nil, nil, fmt.Errorf("unknown engine %q (want cpu, opencl or sycl)", o.Engine)
	}
}
