package search

// The engines' bridge to the occupancy autotuner (internal/tune). An engine
// with Auto set resolves its comparer variant and work-group size here at
// Stream start, once per run, instead of trusting the caller's fixed
// Variant/WorkGroupSize pair. The decision is the run's Profile.Tune, set
// once before the backend opens, so every tuned run reports what it selected
// and why-shaped evidence (the candidate count) reaches the metrics registry
// with the rest of the profile.
//
// Under Auto the configured Variant and WorkGroupSize are both ignored. A
// forced Variant (Auto unset) bypasses the tuner entirely — the
// pre-autotuner behaviour, byte-identical output either way because every
// comparer variant computes the same hits.

import (
	"casoffinder/internal/gpu"
	"casoffinder/internal/tune"
)

// autotuneDecision resolves the tuner's choice for one device and one search
// shape.
func autotuneDecision(dev *gpu.Device, req *Request) (*tune.Decision, error) {
	return tune.Select(tune.Config{
		Spec:       dev.Spec(),
		PatternLen: len(req.Pattern),
		Queries:    len(req.Queries),
		ChunkBytes: req.ChunkBytes,
	})
}
