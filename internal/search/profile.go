package search

import (
	"sort"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/tune"
)

// Profile records what a simulator-backed engine did during one Run: the
// aggregated access statistics per kernel (the simulator's profiler view,
// used to identify the comparer as the hotspot, §IV.B) and the host-side
// pipeline counters the timing model needs to cost staging and transfers.
//
// A run has exactly one Profile, created before any slot opens: the
// backend and the executor's report write it through the locked mutators
// below, and it is published into the run's metrics registry once, when the
// run returns. The exported fields are safe to read from then on.
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

	// ArenaBytes is the total arena storage provisioned across launches,
	// voided attempts included.
	ArenaBytes int64
	// ArenaPageClaims is the number of arena pages kernels claimed.
	ArenaPageClaims int64
	// OverflowRetries counts launches repeated after the arena overflowed
	// and was refitted (at most one per launch).
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

	// Tune is the run's occupancy autotuner decision (internal/tune): the
	// comparer variant and work-group size every launch used and the
	// (variant, work-group size) pairs it scored. Nil when no tuner ran.
	Tune *tune.Decision

	// Faults counts injected fault events by site; nil when no injector
	// was active.
	Faults map[fault.Site]int64
	// FaultLog is the injector's fired-event log sorted by (site, seq) —
	// the replay evidence: two runs with the same plan produce identical
	// logs.
	FaultLog []fault.Event

	mu sync.Mutex
}

func newProfile() *Profile {
	return &Profile{
		Kernels:        make(map[string]gpu.Stats),
		Launches:       make(map[string]int),
		WorkGroupSizes: make(map[string]int),
	}
}

// addKernel merges one launch, run at local size wgSize, into the profile.
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
}

// addStaged counts n bytes of host-to-device traffic.
func (p *Profile) addStaged(n int64) {
	p.mu.Lock()
	p.BytesStaged += n
	p.mu.Unlock()
}

// addRead counts n bytes of device-to-host traffic.
func (p *Profile) addRead(n int64) {
	p.mu.Lock()
	p.BytesRead += n
	p.mu.Unlock()
}

// addCandidates counts finder-reported candidate sites.
func (p *Profile) addCandidates(n int64) {
	p.mu.Lock()
	p.CandidateSites += n
	p.mu.Unlock()
}

// addEntries counts comparer output entries.
func (p *Profile) addEntries(n int64) {
	p.mu.Lock()
	p.Entries += n
	p.mu.Unlock()
}

// addArena records one launch's arena provisioning: bytes of entry storage
// and the pages its kernel claimed.
func (p *Profile) addArena(bytes, pageClaims int64) {
	p.mu.Lock()
	p.ArenaBytes += bytes
	p.ArenaPageClaims += pageClaims
	p.mu.Unlock()
}

// addOverflowRetry counts one refit-and-relaunch after an arena overflow.
func (p *Profile) addOverflowRetry() {
	p.mu.Lock()
	p.OverflowRetries++
	p.mu.Unlock()
}

// addReport folds the executor's report — a run has one — into the
// profile's recovery counters.
func (p *Profile) addReport(rep *pipeline.Report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Retries += rep.Retries
	p.Failovers += rep.Failovers
	p.WatchdogKills += rep.WatchdogKills
	p.QuarantinedChunks += len(rep.Quarantined)
}

// addAsync counts one delivery to the SYCL async exception handler.
func (p *Profile) addAsync() {
	p.mu.Lock()
	p.AsyncExceptions++
	p.mu.Unlock()
}

// addFaults records the fault events the device fired during the run — the
// delta the engine read with Injector.Mark/LogSince, not the injector's
// cumulative log, and already in (site, seq) order. A run calls it once,
// after its executor returns.
func (p *Profile) addFaults(events []fault.Event) {
	if len(events) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Faults == nil {
		p.Faults = make(map[fault.Site]int64)
	}
	for _, e := range events {
		p.Faults[e.Site]++
	}
	p.FaultLog = append(p.FaultLog, events...)
}

// publish adds the run's totals to the metrics registry. It is the only
// writer of these series and runs once, when the run returns, so the registry
// is the sum of the profiles published into it and cannot disagree with
// them. A series appears once its total is non-zero.
func (p *Profile) publish(m *obs.Metrics) {
	if m == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var tuneDecisions, tuneCandidates int64
	if p.Tune != nil {
		tuneDecisions, tuneCandidates = 1, int64(len(p.Tune.Candidates))
	}
	for _, s := range []struct {
		series string
		total  int64
	}{
		{obs.MetricChunks, int64(p.Chunks)},
		{obs.MetricStagedBytes, p.BytesStaged},
		{obs.MetricReadBytes, p.BytesRead},
		{obs.MetricCandidateSites, p.CandidateSites},
		{obs.MetricEntries, p.Entries},
		{obs.MetricArenaBytes, p.ArenaBytes},
		{obs.MetricArenaPages, p.ArenaPageClaims},
		{obs.MetricArenaOverflows, p.OverflowRetries},
		{obs.MetricRetries, p.Retries},
		{obs.MetricFailovers, p.Failovers},
		{obs.MetricWatchdogKills, p.WatchdogKills},
		{obs.MetricQuarantined, int64(p.QuarantinedChunks)},
		{obs.MetricAsyncExceptions, p.AsyncExceptions},
		{obs.MetricTuneDecisions, tuneDecisions},
		{obs.MetricTuneCandidates, tuneCandidates},
	} {
		if s.total != 0 {
			m.Count(s.series, s.total)
		}
	}
	for site, n := range p.Faults {
		m.Count(obs.L(obs.MetricFaults, "site", string(site)), n)
	}
	if p.Tune != nil {
		m.Count(obs.L(obs.MetricTuneSelected, "variant", p.Tune.Variant.String()), 1)
	}
}

// Degraded reports whether the run deviated from the clean path: any
// recovery event the executor counted (pipeline.Report.Degraded).
func (p *Profile) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Retries > 0 || p.Failovers > 0 || p.WatchdogKills > 0 || p.QuarantinedChunks > 0
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
