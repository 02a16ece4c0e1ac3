package isa

import (
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// Arena claim overhead. The kernels now emit every entry through the
// page-based hit-buffer arena (internal/gpu/alloc) instead of a single
// atomic count. The model charges the claim sequence three more kernarg
// pointer pairs (group page table, page cursor, overflow counter) live in
// scalar registers, and the claimed page, the slot offset and the composed
// slot address live in vector registers across the emission stores. The
// simulator binds the arena's claim state as one buffer (one pointer pair,
// beside the page-size and page-count scalars); the charge is kept as it
// was on purpose, since changing it moves the tuner's scores. The
// compiled Table X streams deliberately stay the paper's kernels — those
// rows reproduce measured hardware — so the arena variants are modeled as
// the same instruction mix plus this constant register overhead, and the
// occupancy the autotuner scores (internal/tune) is recomputed with it
// folded in. The claim adds no shared local memory.
const (
	// ArenaSGPRs is the scalar overhead the model charges: three 64-bit
	// arena state pointers, not the one claim-state buffer the simulator
	// binds.
	ArenaSGPRs = 6
	// ArenaVGPRs is the vector overhead: page, slot offset, slot address.
	ArenaVGPRs = 3
)

// arenaDemand is the claim sequence's register overhead.
var arenaDemand = RegDemand{VGPRs: ArenaVGPRs, SGPRs: ArenaSGPRs}

// FinderMetricsArenaAt is finderMetricsAt with the arena claim's register
// overhead folded into the reported demand and occupancy — the launch
// context of the finder the engines actually run.
func FinderMetricsArenaAt(spec device.Spec, plen, wg int) Metrics {
	return compiledFinder().metrics(spec, kernels.FinderLocalBytes(plen), wg, arenaDemand)
}

// ComparerMetricsArenaAt is ComparerMetricsAt with the arena claim's
// register overhead folded into the reported demand and occupancy — the
// launch context of the comparer variants the engines actually run.
func ComparerMetricsArenaAt(v kernels.ComparerVariant, spec device.Spec, plen, wg int) Metrics {
	return compiledComparer(v).metrics(spec, kernels.ComparerLocalBytes(plen), wg, arenaDemand)
}
