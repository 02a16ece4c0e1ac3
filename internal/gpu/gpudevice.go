package gpu

import (
	"runtime"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/obs"
)

// Device is one simulated GPU: a spec from the Table VII registry, a
// global-memory budget and a host worker pool that stands in for the compute
// units. Each launch returns its access statistics; the search layer's
// Profile is the ledger they are folded into.
type Device struct {
	spec    device.Spec
	workers int
	faults  *fault.Injector

	// Observability sinks, attached by SetObs before work is submitted and
	// then read without locking on the launch path. Both are nil-safe, so
	// an unobserved device pays one pointer check per launch.
	obsTrace   *obs.Tracer
	obsMetrics *obs.Metrics
	obsTrack   string

	mu        sync.Mutex
	allocated int64
	pool      storagePool
}

// Option configures a Device.
type Option func(*Device)

// WithWorkers sets the number of host goroutines that execute work-groups
// concurrently. The default is runtime.NumCPU().
func WithWorkers(n int) Option {
	return func(d *Device) {
		if n > 0 {
			d.workers = n
		}
	}
}

// New creates a simulated device with the given spec.
func New(spec device.Spec, opts ...Option) *Device {
	d := &Device{spec: spec, workers: runtime.NumCPU()}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Spec returns the device specification.
func (d *Device) Spec() device.Spec { return d.spec }

// SetFaults attaches (or, with nil, removes) the device's fault injector.
// It must be called before work is submitted; the injector is then read
// without locking on the launch path.
func (d *Device) SetFaults(in *fault.Injector) { d.faults = in }

// Faults returns the device's fault injector; nil means no injection. The
// runtime frontends sample it for their own fault sites (enqueue errors,
// readback corruption, async exceptions) so one seeded schedule covers the
// whole simulated stack.
func (d *Device) Faults() *fault.Injector { return d.faults }

// SetObs attaches the run's observability sinks: every kernel launch is
// recorded as a span on the given trace track and into the per-kernel
// latency histogram. Like SetFaults it must be called before work is
// submitted; an empty track defaults to "gpu:<device name>". Pass nils to
// detach.
func (d *Device) SetObs(t *obs.Tracer, m *obs.Metrics, track string) {
	if track == "" {
		track = "gpu:" + d.spec.Name
	}
	d.obsTrace, d.obsMetrics, d.obsTrack = t, m, track
}

// Instant records a run-scoped instant marker on the device's trace track;
// the frontends use it for events without a duration (a lost device, an
// async exception). No-op when no tracer is attached.
func (d *Device) Instant(name string, attrs ...obs.Attr) {
	d.obsTrace.Instant(d.obsTrack, name, -1, attrs...)
}

// Metrics returns the attached metrics registry; nil means unmetered.
func (d *Device) Metrics() *obs.Metrics { return d.obsMetrics }
