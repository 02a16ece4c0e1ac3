// Package tune is the occupancy-driven autotuner: it closes the loop the
// paper draws by hand between the Table X ISA statistics (code length,
// SGPR/VGPR pressure, occupancy) and the Table VIII/IX runtimes. At engine
// init it compiles every registered comparer variant for the target device
// spec through internal/isa, prices each (variant, work-group size)
// candidate with internal/timing's per-chunk roofline at the occupancy the
// variant achieves at that group size, and selects the argmin — per device,
// automatically, where the paper selects by hand per part.
//
// The model pass is all there is. Its synthetic per-site statistics depend
// on the pattern length and candidate rate, never on the variant, so what it
// separates candidates by is occupancy, register pressure and the staging
// mode — not the traffic a variant saves (ROADMAP item 4(a) puts that inside
// the model). A pass is a few dozen occupancy evaluations over the kernels
// internal/isa compiled once, so nothing is memoized: a Config's pattern
// length and guide count come from a daemon request, and a decision cache
// keyed by them would grow with whatever clients send.
package tune

import (
	"fmt"
	"sort"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/isa"
	"casoffinder/internal/kernels"
	"casoffinder/internal/timing"
)

// DefaultWGSizes are the work-group sizes the tuner scores: the OpenCL
// runtime's 64, the SYCL program's 256 (§IV.A), and the neighbours that
// bracket the granularity trade-off. Sizes beyond the device's
// MaxWorkGroupSize are skipped.
func DefaultWGSizes() []int { return []int{64, 128, 256, 512} }

// defaultChunkBytes matches the pipeline's default staging budget.
const defaultChunkBytes = 1 << 20

// Config describes one tuning problem: a device and a search shape.
type Config struct {
	// Spec is the target device (required).
	Spec device.Spec
	// PatternLen is the search pattern length; non-positive means 23.
	PatternLen int
	// Queries is the guide count; non-positive means 1.
	Queries int
	// ChunkBytes is the staged chunk size the scores are evaluated at;
	// non-positive means the pipeline default (1 MiB).
	ChunkBytes int
}

// Candidate is one scored (variant, work-group size) pair.
type Candidate struct {
	Variant kernels.ComparerVariant
	WGSize  int
	// Occupancy is the comparer's Table X waves-per-SIMD at this WG size.
	Occupancy int
	// Predicted is the model-estimated seconds per staged chunk, the value
	// the tuner ranks by.
	Predicted float64
}

// Decision is the tuner's result for one device: the selected kernel and
// the full scored field, best first, for observability and ablation.
type Decision struct {
	Device    string
	Variant   kernels.ComparerVariant
	WGSize    int
	Predicted float64
	// Candidates holds every scored pair in rank order.
	Candidates []Candidate
}

func (d *Decision) String() string {
	return fmt.Sprintf("%s: %s wg=%d (model, %.3gms/chunk, %d candidates)",
		d.Device, d.Variant, d.WGSize, d.Predicted*1e3, len(d.Candidates))
}

// normConfig is a Config with defaults applied and the work-group sizes
// the device cannot launch dropped.
type normConfig struct {
	spec       device.Spec
	plen       int
	queries    int
	chunkBytes int
	wgSizes    []int
}

func normalize(cfg Config) (normConfig, error) {
	if cfg.Spec.Name == "" {
		return normConfig{}, fmt.Errorf("tune: empty device spec")
	}
	n := normConfig{
		spec:       cfg.Spec,
		plen:       cfg.PatternLen,
		queries:    cfg.Queries,
		chunkBytes: cfg.ChunkBytes,
	}
	if n.plen <= 0 {
		n.plen = 23
	}
	if n.queries <= 0 {
		n.queries = 1
	}
	if n.chunkBytes <= 0 {
		n.chunkBytes = defaultChunkBytes
	}
	for _, wg := range DefaultWGSizes() {
		if cfg.Spec.MaxWorkGroupSize > 0 && wg > cfg.Spec.MaxWorkGroupSize {
			continue
		}
		n.wgSizes = append(n.wgSizes, wg)
	}
	if len(n.wgSizes) == 0 {
		return normConfig{}, fmt.Errorf("tune: no work-group size fits %s (max %d)",
			cfg.Spec.Name, cfg.Spec.MaxWorkGroupSize)
	}
	return n, nil
}

// Estimate builds the per-chunk cost model the tuner scores for one fixed
// (variant, WG size) on a device, with the finder/comparer occupancy and
// register pressure compiled by internal/isa at the candidate work-group
// size.
func Estimate(spec device.Spec, v kernels.ComparerVariant, wg, plen, queries int) timing.ChunkEstimate {
	if plen <= 0 {
		plen = 23
	}
	if queries <= 0 {
		queries = 1
	}
	// The launch contexts are the arena-emitting kernels the engines run:
	// same instruction mix as the Table X rows, with the hit-buffer arena
	// claim's register overhead folded into occupancy and pressure
	// (isa.ArenaSGPRs/ArenaVGPRs). Candidate.Occupancy stays the paper's
	// Table X number; only the cost model sees the adjusted launch context.
	fm := isa.FinderMetricsArenaAt(spec, plen, wg)
	cm := isa.ComparerMetricsArenaAt(v, spec, plen, wg)
	return timing.ChunkEstimate{
		Finder:     timing.FinderConfig(spec, fm.Occupancy, fm.VGPRs, wg, plen),
		Comparer:   timing.ComparerConfig(spec, cm.Occupancy, cm.VGPRs, wg, plen, !v.CooperativeFetch()),
		PatternLen: plen,
		Queries:    queries,
	}
}

// Select scores every (variant, work-group size) candidate for cfg and
// returns the ranked decision.
func Select(cfg Config) (*Decision, error) {
	n, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	return score(n), nil
}

// score prices and ranks n's candidates best-first, with a deterministic
// tiebreak: lower prediction, then the cumulative variant order, then
// smaller groups.
func score(n normConfig) *Decision {
	variants := kernels.Variants()
	cands := make([]Candidate, 0, len(variants)*len(n.wgSizes))
	for _, v := range variants {
		for _, wg := range n.wgSizes {
			cands = append(cands, Candidate{
				Variant:   v,
				WGSize:    wg,
				Occupancy: isa.ComparerMetricsAt(v, n.spec, n.plen, wg).Occupancy,
				Predicted: Estimate(n.spec, v, wg, n.plen, n.queries).Seconds(n.chunkBytes),
			})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Predicted != cands[j].Predicted {
			return cands[i].Predicted < cands[j].Predicted
		}
		if cands[i].Variant != cands[j].Variant {
			return cands[i].Variant < cands[j].Variant
		}
		return cands[i].WGSize < cands[j].WGSize
	})
	best := cands[0]
	return &Decision{
		Device:     n.spec.Name,
		Variant:    best.Variant,
		WGSize:     best.WGSize,
		Predicted:  best.Predicted,
		Candidates: cands,
	}
}
