package tune

// The online calibration pass: the model ranking can be wrong in ways a
// static table cannot correct (the paper's own Fig. 2 regression is a model
// surprise), so the top finalists each run one real comparer launch over a
// small deterministic synthetic chunk on a private simulated device, and
// the measured kernel cost — scaled to a full staged chunk — replaces the
// analytic comparer term for the re-rank. The finder and host terms stay
// analytic: the comparer is ~98% of kernel time (§IV.B), so it is the only
// term worth paying a launch for.
//
// Isolation contract: calibration builds its own gpu.Device from the bare
// spec — no fault plan, no tracer, no metrics registry — so it cannot fire
// the engine's seeded injector, shift Mark/LogSince deltas, or leak spans
// into the run's observability. Everything is seeded and deterministic, and
// every comparer variant computes identical hits by construction, so a
// calibrated engine's output stream stays byte-identical.

import (
	"fmt"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/kernels"
	"casoffinder/internal/timing"
)

const (
	// calibChunkBytes is the synthetic chunk each finalist measures on —
	// small enough that a full tuner pass stays well under one real chunk's
	// simulated work, large enough to exercise the ladder shapes.
	calibChunkBytes = 64 << 10
	// calibStride spaces the synthetic candidate loci so their density
	// matches timing.DefaultCandidateRate (1/20 of positions).
	calibStride = 20
	// calibWorkers bounds the private device's worker pool; the measured
	// Stats counters are worker-count independent.
	calibWorkers = 2
)

// calibWorkload is the deterministic synthetic chunk shared by every
// finalist of one Select call.
type calibWorkload struct {
	chr       []byte
	loci      []uint32
	flags     []byte
	guide     *kernels.PatternPair
	threshold uint16
}

// newCalibWorkload builds the chunk: seeded-LCG ACGT text, a candidate at
// every calibStride-th position on both strands, and an ACGT-cycle guide of
// the search's pattern length. The threshold admits the same early-exit mix
// a real low-mismatch search sees against random text.
func newCalibWorkload(plen int) (*calibWorkload, error) {
	chr := make([]byte, calibChunkBytes)
	x := uint32(0x9E3779B9)
	for i := range chr {
		x = x*1664525 + 1013904223
		chr[i] = "ACGT"[x>>30]
	}
	guideBases := make([]byte, plen)
	for i := range guideBases {
		guideBases[i] = "ACGT"[i%4]
	}
	guide, err := kernels.NewPatternPair(guideBases)
	if err != nil {
		return nil, fmt.Errorf("tune: calibration guide: %w", err)
	}
	w := &calibWorkload{chr: chr, guide: guide, threshold: uint16(plen / 6)}
	for p := 0; p+plen <= len(chr); p += calibStride {
		w.loci = append(w.loci, uint32(p))
		w.flags = append(w.flags, kernels.FlagBoth)
	}
	return w, nil
}

// calibrate measures the top finalists of d.Candidates and re-ranks. On
// return the measured finalists carry Candidate.Measured and d.Calibrated
// is set; the unmeasured tail keeps its model order behind them.
func calibrate(n normConfig, d *Decision) error {
	finalists := n.finalists
	if finalists > len(d.Candidates) {
		finalists = len(d.Candidates)
	}
	w, err := newCalibWorkload(n.plen)
	if err != nil {
		return err
	}
	dev := gpu.New(n.spec, gpu.WithWorkers(calibWorkers))
	for i := 0; i < finalists; i++ {
		sec, err := measure(dev, n, w, &d.Candidates[i])
		if err != nil {
			return err
		}
		d.Candidates[i].Measured = sec
	}
	d.Calibrated = true
	rank(d.Candidates[:finalists])
	return nil
}

// measure runs one finalist's comparer over the synthetic chunk and
// projects the measured launch to a full staged chunk: the analytic finder
// and host terms of the candidate's estimate, plus the measured comparer
// stats scaled to the full chunk's candidate count across all queries.
func measure(dev *gpu.Device, n normConfig, w *calibWorkload, c *Candidate) (float64, error) {
	plen := n.plen
	nCand := len(w.loci)
	wg := c.WGSize
	gws := (nCand + wg - 1) / wg * wg
	arena := alloc.NewHost(alloc.WorstCase(gws/wg, 2*wg))
	ca := &kernels.ComparerArgs{
		Chr:       w.chr,
		Loci:      w.loci,
		Flags:     w.flags,
		LociCount: uint32(nCand),
		Guide:     w.guide,
		Threshold: w.threshold,
		MMLoci:    make([]uint32, arena.Layout.Slots()),
		MMCount:   make([]uint16, arena.Layout.Slots()),
		Direction: make([]byte, arena.Layout.Slots()),
		Arena:     arena.Device(),
	}
	k, err := kernels.NewComparer(c.Variant, ca)
	if err != nil {
		return 0, fmt.Errorf("tune: calibration kernel %s/wg=%d: %w", c.Variant, wg, err)
	}
	stats, err := dev.Launch(gpu.LaunchSpec{
		Name:   kernels.ComparerKernelName(c.Variant),
		Global: gpu.R1(gws),
		Local:  gpu.R1(wg),
		Phases: func() []gpu.Phase {
			return k.Phases(make([]byte, 2*plen), make([]int32, 2*plen))
		},
	})
	if err != nil {
		return 0, fmt.Errorf("tune: calibration launch %s/wg=%d: %w", c.Variant, wg, err)
	}

	// Project to one full staged chunk: the estimate's candidate count per
	// query, times the query count, over the measured candidates.
	est := Estimate(n.spec, c.Variant, wg, plen, n.queries)
	fullCand := int64(timing.DefaultCandidateRate * float64(n.chunkBytes))
	if fullCand < 1 {
		fullCand = 1
	}
	factor := float64(fullCand) * float64(n.queries) / float64(nCand)
	scaled := timing.ScaleStats(*stats, factor)
	ccfg := est.Comparer
	ccfg.WaveSlots = timing.EffectiveWaves(n.spec, ccfg.OccupancyWaves, wg)
	finderSec, _, hostSec := est.Parts(n.chunkBytes)
	return finderSec + timing.KernelSeconds(ccfg, &scaled) + hostSec, nil
}
