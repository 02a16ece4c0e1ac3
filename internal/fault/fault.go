// Package fault is a seeded, deterministic fault-injection layer for the
// simulated runtimes. The paper's central migration concern is how the two
// programming models surface runtime failure — OpenCL's per-call cl_int
// error codes versus SYCL's synchronous and asynchronous exception handlers
// (§III) — but a simulator that only ever succeeds cannot exercise either
// side. An Injector, threaded through internal/gpu and sampled by the
// opencl and sycl frontends, makes named fault sites fail on a seeded
// schedule so that every failure, retry and failover replays byte-identically
// under the same Plan.
//
// Determinism does not come from wall-clock or scheduler state: each site
// keeps its own event counter, and the decision for the n-th event at a site
// is a pure hash of (seed, site, n). As long as the per-site event order is
// deterministic — true for the simulator engines, where one executor slot's
// goroutine issues every enqueue on its device — the whole fault schedule is.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Site names one injectable fault point in the simulated stack. The prefix
// states the layer that fires it.
type Site string

// Fault sites.
const (
	// SiteLaunch fails a kernel launch outright (gpu.Device.Launch returns
	// an error before any work-group runs).
	SiteLaunch Site = "gpu.launch"
	// SiteHang makes a kernel launch hang — the launch blocks until its
	// context is cancelled, modelling a wedged work-group that only a
	// watchdog deadline can reap.
	SiteHang Site = "gpu.hang"
	// SiteReadback corrupts a device-to-host readback (MSB flips in the
	// returned elements), modelling corrupted global memory.
	SiteReadback Site = "gpu.readback"
	// SiteCLEnqueue makes a clEnqueueNDRangeKernel-style call return an
	// error code.
	SiteCLEnqueue Site = "opencl.enqueue"
	// SiteCLTransfer makes a clEnqueueRead/WriteBuffer-style transfer
	// return an error code.
	SiteCLTransfer Site = "opencl.transfer"
	// SiteCLDeviceLost marks the device lost at enqueue time; the error is
	// fatal and poisons the owning context (every later call on it fails).
	SiteCLDeviceLost Site = "opencl.device-lost"
	// SiteSYCLAsync delivers an asynchronous exception on a SYCL command
	// group: the event completes with the error and the queue's async
	// handler receives it.
	SiteSYCLAsync Site = "sycl.async"
	// SiteWatchdog is not injected: it labels errors the pipeline's
	// watchdog synthesises when a backend call exceeds its deadline.
	SiteWatchdog Site = "pipeline.watchdog"
	// SiteArtifact is not injected either: it labels corruption the search
	// layer detects in a persistent genome artifact's precomputed PAM
	// shards (entries outside the chunk geometry, impossible strand bits).
	SiteArtifact Site = "genome.artifact"
	// SiteDeadline is not injected either: it labels a request-scoped
	// deadline expiring (the CLI's -timeout flag, the server's per-request
	// deadlines) — distinct from SiteWatchdog, which bounds a single
	// backend phase rather than the whole run. The class is Fatal from the
	// run's point of view: the caller chose the budget, retrying inside it
	// cannot help.
	SiteDeadline Site = "client.deadline"
	// SiteArena is not injected: it labels the hit-buffer arena. Class
	// Overflow marks an under-provisioned arena whose launch dropped
	// entries (the host refits the arena and relaunches); class Corruption
	// marks arena geometry that came back from the device impossible
	// (page cursor past the provisioned pages, page fills beyond any
	// legal overshoot) even at worst-case provisioning.
	SiteArena Site = "gpu.arena"
)

// Sites lists the injectable sites, for flag validation and fault-matrix
// sweeps. SiteWatchdog is synthesised, never injected, so it is not listed.
func Sites() []Site {
	return []Site{
		SiteLaunch, SiteHang, SiteReadback,
		SiteCLEnqueue, SiteCLTransfer, SiteCLDeviceLost,
		SiteSYCLAsync,
	}
}

// ParseSite validates a site name from a flag.
func ParseSite(s string) (Site, error) {
	for _, site := range Sites() {
		if string(site) == s {
			return site, nil
		}
	}
	return "", fmt.Errorf("fault: unknown site %q (want one of %v)", s, Sites())
}

// Class is the error taxonomy the executor's recovery rule acts on.
type Class int

// Error classes.
const (
	// Transient faults are expected to clear on retry: failed enqueues and
	// transfers, hung launches reaped by the watchdog, async exceptions,
	// allocation pressure.
	Transient Class = iota + 1
	// Corruption marks data that came back from the device damaged; the
	// chunk must be re-verified on an independent backend, never retried
	// blindly on the same one.
	Corruption
	// Fatal faults take the backend down for good (device lost, poisoned
	// context); the only recovery is failover.
	Fatal
	// Overflow marks a launch whose output arena was too small for its
	// hits: no data is damaged and the device is healthy — the recovery is
	// deterministic (refit the arena, relaunch) and must
	// not consume the transient-retry budget or trigger failover.
	Overflow
)

func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Corruption:
		return "data-corruption"
	case Fatal:
		return "fatal"
	case Overflow:
		return "arena-overflow"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Error tags an underlying error with the fault site it came from and its
// class. The frontends wrap their existing sentinel errors (opencl.Err*,
// sycl.AsyncError) in it so errors.Is/As keep working while the pipeline
// dispatches on the class.
type Error struct {
	Site  Site
	Class Class
	Err   error
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault[%s/%s]: %v", e.Site, e.Class, e.Err)
}

// Unwrap exposes the wrapped error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// New wraps err with a site and class.
func New(site Site, class Class, err error) *Error {
	return &Error{Site: site, Class: class, Err: err}
}

// Errorf wraps a formatted error with a site and class.
func Errorf(site Site, class Class, format string, args ...any) *Error {
	return &Error{Site: site, Class: class, Err: fmt.Errorf(format, args...)}
}

// ClassOf classifies an arbitrary error for the retry/failover state
// machine: a wrapped *Error states its class directly; a deadline from a
// watchdog context is transient (the work may succeed on retry); anything
// unrecognised is fatal, so unknown failures never loop.
func ClassOf(err error) Class {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Class
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Transient
	}
	return Fatal
}

// Plan configures an Injector. The zero Plan injects nothing.
type Plan struct {
	// Seed drives every decision; the same Seed replays the same schedule.
	Seed uint64
	// Rate is the per-event firing probability in [0, 1].
	Rate float64
	// Site restricts injection to one site; empty means every site is
	// eligible.
	Site Site
	// After skips the first After eligible events per site before the Rate
	// applies, so a fault can be aimed mid-run (e.g. at the second launch).
	After int
}

// Event is one fired fault: the site and its per-site sequence number. Same
// plan, same run → same events.
type Event struct {
	Site Site
	Seq  int
}

// Injector decides, deterministically, whether each fault site fires. A nil
// *Injector is valid and never fires, so the runtimes thread it without
// nil-checks on the hot path.
type Injector struct {
	plan Plan

	mu  sync.Mutex
	seq map[Site]int
	log []Event
}

// NewInjector builds an injector for the plan. Plans with Rate <= 0 return
// nil: no injector, zero overhead.
func NewInjector(plan Plan) *Injector {
	if plan.Rate <= 0 {
		return nil
	}
	if plan.Rate > 1 {
		plan.Rate = 1
	}
	return &Injector{plan: plan, seq: make(map[Site]int)}
}

// Fire reports whether the next event at site should fail, advancing the
// site's event counter either way.
func (in *Injector) Fire(site Site) bool {
	if in == nil {
		return false
	}
	if in.plan.Site != "" && in.plan.Site != site {
		return false
	}
	in.mu.Lock()
	seq := in.seq[site]
	in.seq[site] = seq + 1
	fired := seq >= in.plan.After && in.decide(site, seq)
	if fired {
		in.log = append(in.log, Event{Site: site, Seq: seq})
	}
	in.mu.Unlock()
	return fired
}

// decide is the pure decision function: hash (seed, site, seq) to [0, 1) and
// compare against the rate.
func (in *Injector) decide(site Site, seq int) bool {
	x := in.plan.Seed
	for _, b := range []byte(site) {
		x = (x ^ uint64(b)) * 0x100000001b3
	}
	x ^= uint64(seq) * 0x9E3779B97F4A7C15
	// splitmix64 finaliser.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < in.plan.Rate
}

// Log returns the fired events sorted by (site, seq). Per-site order is
// append order; the cross-site sort removes any scheduler-dependent
// interleaving, so two runs with the same plan produce identical logs.
func (in *Injector) Log() []Event {
	return in.LogSince(0)
}

// Mark returns a cursor over the fired-event log: the number of events fired
// so far. Pass it to LogSince to read only the events fired after the mark.
// A nil injector marks 0.
func (in *Injector) Mark() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.log)
}

// LogSince returns the events fired after mark (a cursor from Mark), sorted
// by (site, seq) like Log. It lets a reused engine attribute to each run its
// own fault delta rather than the injector's cumulative history.
func (in *Injector) LogSince(mark int) []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	if mark < 0 {
		mark = 0
	}
	if mark > len(in.log) {
		mark = len(in.log)
	}
	out := make([]Event, len(in.log)-mark)
	copy(out, in.log[mark:])
	in.mu.Unlock()
	SortEvents(out)
	return out
}

// SortEvents sorts a fault-event slice by (site, seq), the canonical order of
// Log and of Profile.FaultLog.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].Site != events[j].Site {
			return events[i].Site < events[j].Site
		}
		return events[i].Seq < events[j].Seq
	})
}

// Counts returns the number of fired events per site.
func (in *Injector) Counts() map[Site]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Site]int64)
	for _, e := range in.log {
		out[e.Site]++
	}
	return out
}

// Jitter hashes (seed, a, b) to a deterministic value in [0.5, 1.0), the
// scale factor the resilience policy applies to its exponential backoff:
// reproducible like everything else in the fault schedule, but still spread
// enough that distinct chunks never retry in lockstep.
func Jitter(seed, a, b uint64) float64 {
	x := seed ^ a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	// splitmix64 finaliser.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return 0.5 + float64(x>>11)/(1<<54)
}

// Corruption model: readback corruption flips the most-significant bit of
// every element, which is loud by design — a corrupted locus or counter
// lands far outside any valid range, so the frontends' bounds validation
// detects it and classifies the chunk for CPU re-verification. Silent
// in-range corruption would need checksummed transfers; DESIGN.md §9 notes
// the boundary.

// CorruptU32 flips the MSB of every element in place.
func CorruptU32(s []uint32) {
	for i := range s {
		s[i] ^= 1 << 31
	}
}

// CorruptU16 flips the MSB of every element in place.
func CorruptU16(s []uint16) {
	for i := range s {
		s[i] ^= 1 << 15
	}
}

// CorruptBytes flips the MSB of every byte in place.
func CorruptBytes(s []byte) {
	for i := range s {
		s[i] ^= 1 << 7
	}
}

// CorruptAny corrupts the element types the frontends read back; other
// types are left untouched.
func CorruptAny(data any) {
	switch s := data.(type) {
	case []uint32:
		CorruptU32(s)
	case []uint16:
		CorruptU16(s)
	case []byte:
		CorruptBytes(s)
	}
}
