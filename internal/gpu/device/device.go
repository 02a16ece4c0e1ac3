// Package device holds the specifications of the simulated AMD GPUs the
// paper evaluates (Table VII) together with the microarchitectural constants
// the occupancy and timing models need. The three devices — Radeon VII,
// Instinct MI60 and Instinct MI100 — are GCN (Vega 20) and CDNA 1 parts
// sharing a 64-lane wavefront and a 4-SIMD compute unit.
package device

import (
	"fmt"
	"sort"
	"strings"
)

// Spec describes one simulated GPU. The first block of fields reproduces
// Table VII of the paper; the second block holds derived or
// microarchitectural constants used by the occupancy and timing models.
type Spec struct {
	// Name is the short device name used throughout the paper
	// ("RVII", "MI60", "MI100").
	Name string
	// Marketing is the full product name.
	Marketing string

	// Table VII columns.
	GlobalMemBytes int64   // device global memory
	GPUClockMHz    int     // shader clock
	MemClockMHz    int     // memory clock
	Cores          int     // stream processors
	L2CacheBytes   int64   // last-level cache
	PeakBWGBs      float64 // peak memory bandwidth, GB/s

	// Microarchitectural constants.
	WavefrontSize    int // lanes per wavefront (64 on GCN/CDNA)
	SIMDsPerCU       int // SIMD units per compute unit
	MaxWavesPerSIMD  int // hardware wave slots per SIMD
	VGPRBudget       int // model VGPR capacity per SIMD lane slot (see Occupancy)
	SGPRBudget       int // model SGPR capacity per SIMD
	VGPRGranularity  int // VGPR allocation granularity
	SGPRGranularity  int // SGPR allocation granularity
	LDSPerCUBytes    int // shared local memory per compute unit
	MaxWorkGroupSize int // largest launchable work-group
	// MemLatencyCycles is the unloaded global-memory read latency used by
	// the latency-hiding term of the timing model.
	MemLatencyCycles int
}

// ComputeUnits returns the number of compute units (Cores / WavefrontSize).
func (s Spec) ComputeUnits() int { return s.Cores / s.WavefrontSize }

// ClockHz returns the shader clock in Hz.
func (s Spec) ClockHz() float64 { return float64(s.GPUClockMHz) * 1e6 }

func (s Spec) String() string {
	return fmt.Sprintf("%s (%d CUs @ %d MHz, %d GiB, %.0f GB/s)",
		s.Name, s.ComputeUnits(), s.GPUClockMHz, s.GlobalMemBytes>>30, s.PeakBWGBs)
}

func vega(name, marketing string, memGiB int64, gpuMHz, memMHz, cores int, bw float64) Spec {
	return Spec{
		Name:             name,
		Marketing:        marketing,
		GlobalMemBytes:   memGiB << 30,
		GPUClockMHz:      gpuMHz,
		MemClockMHz:      memMHz,
		Cores:            cores,
		L2CacheBytes:     8 << 20,
		PeakBWGBs:        bw,
		WavefrontSize:    64,
		SIMDsPerCU:       4,
		MaxWavesPerSIMD:  10,
		VGPRBudget:       800,
		SGPRBudget:       3200,
		VGPRGranularity:  8,
		SGPRGranularity:  16,
		LDSPerCUBytes:    64 << 10,
		MaxWorkGroupSize: 1024,
		MemLatencyCycles: 350,
	}
}

// RadeonVII returns the Radeon VII (Vega 20) spec from Table VII.
func RadeonVII() Spec { return vega("RVII", "AMD Radeon VII", 16, 1800, 1000, 3840, 1024) }

// MI60 returns the Instinct MI60 (Vega 20) spec from Table VII.
func MI60() Spec { return vega("MI60", "AMD Instinct MI60", 32, 1800, 1000, 4096, 1024) }

// MI100 returns the Instinct MI100 (CDNA 1) spec from Table VII.
func MI100() Spec {
	s := vega("MI100", "AMD Instinct MI100", 32, 1502, 1200, 7680, 1228)
	s.MemLatencyCycles = 320
	return s
}

// All returns the evaluated devices in the paper's presentation order.
func All() []Spec { return []Spec{RadeonVII(), MI60(), MI100()} }

// ByName looks a device up by its short name (or "radeonvii" for RVII),
// case-insensitively.
func ByName(name string) (Spec, error) {
	if strings.EqualFold(name, "radeonvii") {
		return RadeonVII(), nil
	}
	for _, s := range All() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	var names []string
	for _, s := range All() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return Spec{}, fmt.Errorf("device: unknown device %q (have %v)", name, names)
}

func roundUp(v, gran int) int {
	if gran <= 1 {
		return v
	}
	return (v + gran - 1) / gran * gran
}

// KernelResources are the per-kernel resource demands that bound occupancy.
type KernelResources struct {
	VGPRs         int // vector registers per work-item
	SGPRs         int // scalar registers per wavefront
	LDSBytesPerWG int // shared local memory per work-group
	WorkGroupSize int // work-items per work-group
}

// Occupancy returns the achievable waves per SIMD (the metric Table X
// reports, 10 at best) for a kernel with the given resource usage.
//
// The rule is a calibrated model of the GCN/CDNA allocation constraints:
// wave slots are limited by the hardware maximum, by vector-register file
// capacity (VGPRs are allocated per lane in VGPRGranularity steps out of a
// per-slot budget), by scalar-register file capacity, and by how many
// work-groups the compute unit's shared local memory can hold. The budget
// constants in Spec are chosen so that the model reproduces the paper's
// measured occupancies (64/57 VGPRs -> 10 waves, 82 VGPRs -> 9 waves).
func (s Spec) Occupancy(k KernelResources) int {
	waves := s.MaxWavesPerSIMD
	if k.VGPRs > 0 {
		if byVGPR := s.VGPRBudget / roundUp(k.VGPRs, s.VGPRGranularity); byVGPR < waves {
			waves = byVGPR
		}
	}
	if k.SGPRs > 0 {
		if bySGPR := s.SGPRBudget / roundUp(k.SGPRs, s.SGPRGranularity); bySGPR < waves {
			waves = bySGPR
		}
	}
	if k.LDSBytesPerWG > 0 && k.WorkGroupSize > 0 {
		groupsPerCU := s.LDSPerCUBytes / k.LDSBytesPerWG
		wavesPerGroup := (k.WorkGroupSize + s.WavefrontSize - 1) / s.WavefrontSize
		byLDS := groupsPerCU * wavesPerGroup / s.SIMDsPerCU
		if byLDS < waves {
			waves = byLDS
		}
	}
	if waves < 0 {
		waves = 0
	}
	return waves
}
