// Per-device chunk-cost estimation for the autotuner (internal/tune): how
// long one staged chunk of the search costs on a given device, composed from
// the same roofline terms as KernelSeconds over synthetic per-site access
// statistics. The tuner ranks (variant, work-group size) pairs by it, so
// only the ratios matter; the synthetic stats only need the right shape — a
// coalesced single-pass finder and a scattered per-candidate comparer (the
// §IV.B hotspot) — not calibrated magnitudes.

package timing

import (
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

// DefaultCandidateRate is the assumed fraction of chunk positions that
// survive the PAM prefilter.
const DefaultCandidateRate = 0.05

// estimateDefaultChunkBytes sizes the synthetic chunk when the caller
// passes no budget; it matches the pipeline's default staging budget.
const estimateDefaultChunkBytes = 1 << 20

// ChunkEstimate models the cost of one staged chunk on one device.
type ChunkEstimate struct {
	// Finder and Comparer carry the launch contexts of the two kernels on
	// the device (spec, occupancy, register pressure, scatter — built the
	// same way internal/bench costs measured runs, from internal/isa).
	Finder   KernelConfig
	Comparer KernelConfig
	// PatternLen and Queries describe the search; non-positive values mean
	// a 23-base pattern and one guide.
	PatternLen int
	Queries    int
}

// launchGroups is the work-group count of a launch over n items.
func launchGroups(n int64, cfg KernelConfig) int64 {
	wg := int64(cfg.WorkGroupSize)
	if wg <= 0 {
		wg = 256
	}
	return (n + wg - 1) / wg
}

// effectiveWaves converts a resource-limited occupancy (waves per SIMD,
// from device.Spec.Occupancy) into the effective wave parallelism a launch
// with the given work-group size sustains. Two effects the flat occupancy
// number hides:
//
//   - wave-slot granularity: a work-group occupies ceil(wg/wavefront) wave
//     slots that must co-reside on one compute unit, so a CU with
//     occ*SIMDsPerCU slots holds only floor(slots/wavesPerGroup) whole
//     groups — at wg=512 a 9-wave occupancy really runs 8 waves per SIMD;
//   - lane fill: a work-group whose size is not a wavefront multiple pads
//     its last wave with idle lanes that still consume a slot.
//
// Non-positive occWaves means the hardware maximum; non-positive wgSize
// means the standard 256-item group. A group too large for the slot budget
// still runs — alone — so the result is never below one group's waves.
func effectiveWaves(spec device.Spec, occWaves, wgSize int) float64 {
	wave := spec.WavefrontSize
	if wave <= 0 {
		wave = 64
	}
	simds := spec.SIMDsPerCU
	if simds <= 0 {
		simds = 1
	}
	if wgSize <= 0 {
		wgSize = 256
	}
	occ := occWaves
	if occ <= 0 {
		occ = spec.MaxWavesPerSIMD
	}
	wavesPerGroup := (wgSize + wave - 1) / wave
	groups := occ * simds / wavesPerGroup
	if groups < 1 {
		groups = 1
	}
	fill := float64(wgSize) / float64(wavesPerGroup*wave)
	return float64(groups*wavesPerGroup) / float64(simds) * fill
}

// Seconds estimates the full cost of one chunkBytes-sized chunk: the finder
// pass over every position, the comparer over the surviving candidates on
// both strands per query, plus the per-chunk host and transfer overhead.
// Kernel terms are evaluated at the work-group-corrected effective
// occupancy (effectiveWaves), so the estimate separates candidate
// work-group sizes instead of flattening them.
func (e ChunkEstimate) Seconds(chunkBytes int) float64 {
	finder, comparer, host := e.parts(chunkBytes)
	return finder + comparer + host
}

// parts decomposes the estimate into its finder-kernel, comparer-kernel and
// host/transfer terms; Seconds is their sum.
func (e ChunkEstimate) parts(chunkBytes int) (finderSec, comparerSec, hostSec float64) {
	if chunkBytes <= 0 {
		chunkBytes = estimateDefaultChunkBytes
	}
	plen := int64(e.PatternLen)
	if plen <= 0 {
		plen = 23
	}
	q := int64(e.Queries)
	if q <= 0 {
		q = 1
	}

	// Finder: one work-item per position, a coalesced sequential window
	// read plus a constant-cache scaffold fetch and a few ALU ops.
	sites := int64(chunkBytes)
	cand := int64(DefaultCandidateRate * float64(sites))
	if cand < 1 {
		cand = 1
	}
	finder := gpu.Stats{
		WorkItems:       sites,
		WorkGroups:      launchGroups(sites, e.Finder),
		GlobalLoadOps:   2 * sites,
		ConstantLoadOps: sites,
		ALUOps:          10 * sites,
		Branches:        2 * sites,
	}
	// Hit-buffer arena claims: each surviving candidate bumps its group's
	// entry counter, and each emitting group's leader claims a page (cursor
	// bump plus page publish). The term is occupancy-independent in the
	// roofline, so it shifts all candidates at one work-group size equally.
	finder.AtomicOps = cand + 2*finder.WorkGroups

	// Comparer: each surviving candidate window is re-read base by base on
	// both strands — the scattered dependent loads that make this kernel
	// the hotspot and the latency term the dominant cross-device ratio.
	loads := 2 * cand * plen
	comparer := gpu.Stats{
		WorkItems:     cand * q,
		WorkGroups:    launchGroups(cand, e.Comparer) * q,
		GlobalLoadOps: loads * q,
		LocalLoadOps:  loads * q,
		ALUOps:        4 * loads * q,
		Branches:      loads * q,
	}
	// Arena claims on the hit path, same shape as the finder's.
	comparer.AtomicOps = cand*q + 2*comparer.WorkGroups

	return KernelSeconds(e.Finder.withEffectiveWaves(), &finder),
		KernelSeconds(e.Comparer.withEffectiveWaves(), &comparer),
		hostPerChunkSec + float64(chunkBytes)*(1/hostStageBytesPerSec+1/pcieBytesPerSec)
}
