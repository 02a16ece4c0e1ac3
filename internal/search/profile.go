package search

import (
	"sort"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/sched"
	"casoffinder/internal/tune"
)

// Profile records what a simulator-backed engine did during one Run: the
// aggregated access statistics per kernel (the simulator's profiler view,
// used to identify the comparer as the hotspot, §IV.B) and the host-side
// pipeline counters the timing model needs to cost staging and transfers.
//
// The exported fields are safe to read once the run has returned; while a
// run is live the backend and its device's callbacks update them
// concurrently through the locked mutators below.
type Profile struct {
	// Kernels aggregates launch statistics by kernel name.
	Kernels map[string]gpu.Stats
	// Launches counts launches by kernel name.
	Launches map[string]int
	// WorkGroupSizes records the local size used per kernel name.
	WorkGroupSizes map[string]int
	// Chunks is the number of sequence chunks staged to the device.
	Chunks int
	// BytesStaged is the host-to-device traffic (chunk sequences, pattern
	// tables, parameter buffers).
	BytesStaged int64
	// BytesRead is the device-to-host traffic (counters and result
	// arrays).
	BytesRead int64
	// CandidateSites is the total number of PAM-compatible loci the finder
	// reported across all chunks.
	CandidateSites int64
	// Entries is the total number of comparer output entries.
	Entries int64

	// Hit-buffer arena counters, filled by the arena-backed backends.

	// ArenaBytes is the total arena entry storage provisioned across
	// launches — the figure density-driven allocation shrinks relative to
	// worst-case provisioning.
	ArenaBytes int64
	// ArenaPageClaims is the number of arena pages kernels claimed.
	ArenaPageClaims int64
	// OverflowRetries counts launches repeated after the arena overflowed
	// and was grown (the bounded grow-and-retry loop).
	OverflowRetries int64

	// Recovery counters, folded from the executor's run report when the
	// engine runs with a pipeline.Resilience policy.

	// Retries counts transient retry attempts.
	Retries int64
	// Failovers counts chunks re-staged on the fallback backend.
	Failovers int64
	// WatchdogKills counts phases reaped by the watchdog deadline.
	WatchdogKills int64
	// QuarantinedChunks counts chunks that failed on every arm.
	QuarantinedChunks int
	// AsyncExceptions counts errors delivered to the SYCL queue's
	// asynchronous exception handler.
	AsyncExceptions int64

	// Fleet counters, folded from the executor's run report when the
	// engine runs several devices.

	// Evictions counts devices evicted from the fleet.
	Evictions int64
	// DeviceChunks breaks chunk settles down by device slot name; nil
	// outside fleet runs.
	DeviceChunks map[string]int

	// Autotuner records, filled when the engine resolved its kernel
	// selection through the occupancy autotuner (internal/tune).

	// TunedVariant and TunedWGSize record the selected comparer variant
	// and work-group size per engine track ("sycl-sim", "sycl-sim[0]", …);
	// nil when no tuner ran.
	TunedVariant map[string]string
	TunedWGSize  map[string]int
	// TuneDecisions counts tuner decisions folded into this profile,
	// TuneCandidates the (variant, work-group size) pairs they scored, and
	// TuneCalibrations the decisions that ran the online measured pass.
	TuneDecisions    int64
	TuneCandidates   int64
	TuneCalibrations int64

	// Faults counts injected fault events by site; nil when no injector
	// was active.
	Faults map[fault.Site]int64
	// FaultLog is the injector's fired-event log sorted by (site, seq) —
	// the replay evidence: two runs with the same plan produce identical
	// logs.
	FaultLog []fault.Event

	mu sync.Mutex

	// metrics mirrors the counters above into the run's metrics registry as
	// they accumulate, so a -metrics dump always agrees with the profile
	// totals. Nil when the run is unobserved; obs methods are nil-safe.
	metrics *obs.Metrics
}

func newProfile(m *obs.Metrics) *Profile {
	return &Profile{
		Kernels:        make(map[string]gpu.Stats),
		Launches:       make(map[string]int),
		WorkGroupSizes: make(map[string]int),
		metrics:        m,
	}
}

// addKernel merges one launch into the profile.
func (p *Profile) addKernel(name string, s *gpu.Stats, wgSize int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	agg := p.Kernels[name]
	agg.Add(s)
	p.Kernels[name] = agg
	p.Launches[name]++
	p.WorkGroupSizes[name] = wgSize
}

// addStagedChunk counts one staged sequence chunk of n bytes.
func (p *Profile) addStagedChunk(n int64) {
	p.mu.Lock()
	p.Chunks++
	p.BytesStaged += n
	p.mu.Unlock()
	p.metrics.Count(obs.MetricChunks, 1)
	p.metrics.Count(obs.MetricStagedBytes, n)
}

// addStaged counts n bytes of host-to-device traffic.
func (p *Profile) addStaged(n int64) {
	p.mu.Lock()
	p.BytesStaged += n
	p.mu.Unlock()
	p.metrics.Count(obs.MetricStagedBytes, n)
}

// addRead counts n bytes of device-to-host traffic.
func (p *Profile) addRead(n int64) {
	p.mu.Lock()
	p.BytesRead += n
	p.mu.Unlock()
	p.metrics.Count(obs.MetricReadBytes, n)
}

// addCandidates counts finder-reported candidate sites.
func (p *Profile) addCandidates(n int64) {
	p.mu.Lock()
	p.CandidateSites += n
	p.mu.Unlock()
	p.metrics.Count(obs.MetricCandidateSites, n)
}

// addEntries counts comparer output entries.
func (p *Profile) addEntries(n int64) {
	p.mu.Lock()
	p.Entries += n
	p.mu.Unlock()
	p.metrics.Count(obs.MetricEntries, n)
}

// addArena records one launch's arena provisioning: bytes of entry storage
// and the pages its kernel claimed.
func (p *Profile) addArena(bytes, pageClaims int64) {
	p.mu.Lock()
	p.ArenaBytes += bytes
	p.ArenaPageClaims += pageClaims
	p.mu.Unlock()
	p.metrics.Count(obs.MetricArenaBytes, bytes)
	p.metrics.Count(obs.MetricArenaPages, pageClaims)
}

// addOverflowRetry counts one grow-and-relaunch after an arena overflow.
func (p *Profile) addOverflowRetry() {
	p.mu.Lock()
	p.OverflowRetries++
	p.mu.Unlock()
	p.metrics.Count(obs.MetricArenaOverflows, 1)
}

// addResilience folds one run's resilience report into the profile. It does
// not mirror into the metrics registry: the executor counts each event where
// it happens.
func (p *Profile) addResilience(rep *pipeline.Report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Retries += rep.Retries
	p.OverflowRetries += rep.OverflowRelaunches
	p.Failovers += rep.Failovers
	p.WatchdogKills += rep.WatchdogKills
	p.QuarantinedChunks += len(rep.Quarantined)
}

// addSched folds a fleet run's report into the profile: the resilience
// counters plus evictions and the per-device chunk counts.
func (p *Profile) addSched(rep *sched.Report) {
	p.addResilience(&rep.Report)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Evictions += rep.Evictions
	if p.DeviceChunks == nil {
		p.DeviceChunks = make(map[string]int)
	}
	for _, d := range rep.Slots {
		p.DeviceChunks[d.Name] += d.Chunks
	}
}

// addTune records one autotuner decision under the engine's track name,
// mirroring the counters (and a variant-labelled selection count) into the
// metrics registry at decision time — the same live-mirroring contract as the
// device-side mutators, so a -metrics dump always agrees with the profile
// totals.
func (p *Profile) addTune(track string, d *tune.Decision) {
	p.mu.Lock()
	if p.TunedVariant == nil {
		p.TunedVariant = make(map[string]string)
		p.TunedWGSize = make(map[string]int)
	}
	p.TunedVariant[track] = d.Variant.String()
	p.TunedWGSize[track] = d.WGSize
	p.TuneDecisions++
	p.TuneCandidates += int64(len(d.Candidates))
	if d.Calibrated {
		p.TuneCalibrations++
	}
	p.mu.Unlock()
	p.metrics.Count(obs.MetricTuneDecisions, 1)
	p.metrics.Count(obs.MetricTuneCandidates, int64(len(d.Candidates)))
	if d.Calibrated {
		p.metrics.Count(obs.MetricTuneCalibrations, 1)
	}
	if p.metrics != nil {
		p.metrics.Count(obs.L(obs.MetricTuneSelected, "variant", d.Variant.String()), 1)
	}
}

// addAsync counts one delivery to the SYCL async exception handler.
func (p *Profile) addAsync() {
	p.mu.Lock()
	p.AsyncExceptions++
	p.mu.Unlock()
	p.metrics.Count(obs.MetricAsyncExceptions, 1)
}

// addFaults folds one run's fired fault events — the delta the engine read
// with Injector.Mark/LogSince, not the injector's cumulative log — into the
// profile, keeping FaultLog in its documented (site, seq) order.
func (p *Profile) addFaults(events []fault.Event) {
	if len(events) == 0 {
		return
	}
	p.mu.Lock()
	if p.Faults == nil {
		p.Faults = make(map[fault.Site]int64)
	}
	for _, e := range events {
		p.Faults[e.Site]++
	}
	p.FaultLog = append(p.FaultLog, events...)
	fault.SortEvents(p.FaultLog)
	p.mu.Unlock()
	if p.metrics != nil {
		for _, e := range events {
			p.metrics.Count(obs.L(obs.MetricFaults, "site", string(e.Site)), 1)
		}
	}
}

// Degraded reports whether the run deviated from the clean path.
func (p *Profile) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Retries > 0 || p.Failovers > 0 || p.WatchdogKills > 0 ||
		p.QuarantinedChunks > 0 || p.Evictions > 0
}

// merge folds o into p. o must be quiescent (its run finished).
func (p *Profile) merge(o *Profile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, s := range o.Kernels {
		agg := p.Kernels[name]
		agg.Add(&s)
		p.Kernels[name] = agg
		p.Launches[name] += o.Launches[name]
		// A merged profile keeps a kernel's work-group size only while every
		// device agrees on it; a conflict records 0 ("mixed") rather than
		// whichever device merged last.
		if prev, ok := p.WorkGroupSizes[name]; !ok {
			p.WorkGroupSizes[name] = o.WorkGroupSizes[name]
		} else if prev != o.WorkGroupSizes[name] {
			p.WorkGroupSizes[name] = 0
		}
	}
	p.Chunks += o.Chunks
	p.BytesStaged += o.BytesStaged
	p.BytesRead += o.BytesRead
	p.CandidateSites += o.CandidateSites
	p.Entries += o.Entries
	p.ArenaBytes += o.ArenaBytes
	p.ArenaPageClaims += o.ArenaPageClaims
	p.OverflowRetries += o.OverflowRetries
	p.Retries += o.Retries
	p.Failovers += o.Failovers
	p.WatchdogKills += o.WatchdogKills
	p.QuarantinedChunks += o.QuarantinedChunks
	p.AsyncExceptions += o.AsyncExceptions
	p.Evictions += o.Evictions
	if o.DeviceChunks != nil {
		if p.DeviceChunks == nil {
			p.DeviceChunks = make(map[string]int)
		}
		for name, n := range o.DeviceChunks {
			p.DeviceChunks[name] += n
		}
	}
	// Each tuner decision already mirrored into the shared registry when
	// addTune ran, so merge only sums the profile side.
	if o.TunedVariant != nil {
		if p.TunedVariant == nil {
			p.TunedVariant = make(map[string]string)
			p.TunedWGSize = make(map[string]int)
		}
		for track, v := range o.TunedVariant {
			p.TunedVariant[track] = v
		}
		for track, wg := range o.TunedWGSize {
			p.TunedWGSize[track] = wg
		}
	}
	p.TuneDecisions += o.TuneDecisions
	p.TuneCandidates += o.TuneCandidates
	p.TuneCalibrations += o.TuneCalibrations
	if o.Faults != nil {
		if p.Faults == nil {
			p.Faults = make(map[fault.Site]int64)
		}
		for site, n := range o.Faults {
			p.Faults[site] += n
		}
	}
	p.FaultLog = append(p.FaultLog, o.FaultLog...)
	// Per-device logs arrive individually sorted; the concatenation is not.
	// Re-sort so multi-device merges keep the documented replay order.
	fault.SortEvents(p.FaultLog)
}

// KernelNames returns the profiled kernel names ("finder" plus the comparer
// variant that ran), sorted so reports and the timing model iterate
// deterministically.
func (p *Profile) KernelNames() []string {
	names := make([]string, 0, len(p.Kernels))
	for n := range p.Kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Profiler is implemented by engines that collect a Profile.
type Profiler interface {
	// LastProfile returns the profile of the most recent Run, or nil.
	LastProfile() *Profile
}
