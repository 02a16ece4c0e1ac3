package device

import (
	"strings"
	"testing"
)

// TestTableVII pins the registry to the paper's Table VII values.
func TestTableVII(t *testing.T) {
	tests := []struct {
		spec   Spec
		memGiB int64
		gpuMHz int
		memMHz int
		cores  int
		l2MiB  int64
		peakBW float64
	}{
		{RadeonVII(), 16, 1800, 1000, 3840, 8, 1024},
		{MI60(), 32, 1800, 1000, 4096, 8, 1024},
		{MI100(), 32, 1502, 1200, 7680, 8, 1228},
	}
	for _, tt := range tests {
		s := tt.spec
		if s.GlobalMemBytes != tt.memGiB<<30 {
			t.Errorf("%s: mem = %d GiB, want %d", s.Name, s.GlobalMemBytes>>30, tt.memGiB)
		}
		if s.GPUClockMHz != tt.gpuMHz || s.MemClockMHz != tt.memMHz {
			t.Errorf("%s: clocks = %d/%d, want %d/%d", s.Name, s.GPUClockMHz, s.MemClockMHz, tt.gpuMHz, tt.memMHz)
		}
		if s.Cores != tt.cores {
			t.Errorf("%s: cores = %d, want %d", s.Name, s.Cores, tt.cores)
		}
		if s.L2CacheBytes != tt.l2MiB<<20 {
			t.Errorf("%s: L2 = %d, want %d MiB", s.Name, s.L2CacheBytes, tt.l2MiB)
		}
		if s.PeakBWGBs != tt.peakBW {
			t.Errorf("%s: BW = %v, want %v", s.Name, s.PeakBWGBs, tt.peakBW)
		}
	}
}

func TestComputeUnits(t *testing.T) {
	if got := RadeonVII().ComputeUnits(); got != 60 {
		t.Errorf("RVII CUs = %d, want 60", got)
	}
	if got := MI60().ComputeUnits(); got != 64 {
		t.Errorf("MI60 CUs = %d, want 64", got)
	}
	if got := MI100().ComputeUnits(); got != 120 {
		t.Errorf("MI100 CUs = %d, want 120", got)
	}
}

func TestByName(t *testing.T) {
	for _, want := range All() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want.Name, err)
		}
		if got.Cores != want.Cores {
			t.Errorf("ByName(%q) returned wrong spec", want.Name)
		}
	}
	for name, want := range map[string]string{"mi100": "MI100", "Mi60": "MI60", "rvii": "RVII", "RadeonVII": "RVII"} {
		if got, err := ByName(name); err != nil || got.Name != want {
			t.Errorf("ByName(%q) = %q, %v; want %s", name, got.Name, err, want)
		}
	}
	if _, err := ByName("H100"); err == nil {
		t.Error("ByName(unknown) = nil error")
	}
}

func TestString(t *testing.T) {
	s := MI100().String()
	for _, part := range []string{"MI100", "120 CUs", "1502 MHz", "32 GiB"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q missing %q", s, part)
		}
	}
}

// TestOccupancyPaperPoints pins the occupancy model to the register counts
// the paper measured for the comparer kernel variants (Table X, with the
// swapped row labels corrected per DESIGN.md): 64 VGPRs -> 10 waves,
// 57 -> 10, 82 -> 9.
func TestOccupancyPaperPoints(t *testing.T) {
	tests := []struct {
		vgprs, sgprs, want int
	}{
		{64, 22, 10}, // base, opt1, opt2
		{57, 10, 10}, // opt3
		{82, 10, 9},  // opt4
	}
	for _, spec := range All() {
		for _, tt := range tests {
			got := spec.Occupancy(KernelResources{
				VGPRs: tt.vgprs, SGPRs: tt.sgprs,
				LDSBytesPerWG: 256, WorkGroupSize: 256,
			})
			if got != tt.want {
				t.Errorf("%s: Occupancy(v=%d s=%d) = %d, want %d",
					spec.Name, tt.vgprs, tt.sgprs, got, tt.want)
			}
		}
	}
}

func TestOccupancyMonotonicInVGPRs(t *testing.T) {
	spec := MI60()
	prev := spec.MaxWavesPerSIMD + 1
	for v := 8; v <= 512; v += 8 {
		occ := spec.Occupancy(KernelResources{VGPRs: v})
		if occ > prev {
			t.Fatalf("occupancy increased with more VGPRs: %d VGPRs -> %d (prev %d)", v, occ, prev)
		}
		prev = occ
	}
	if prev >= spec.MaxWavesPerSIMD {
		t.Error("512 VGPRs should not sustain maximum occupancy")
	}
}

func TestOccupancyLDSConstraint(t *testing.T) {
	spec := RadeonVII()
	// 32 KiB of LDS per 256-item work-group: only two groups (8 waves)
	// fit a CU, i.e. 2 waves per SIMD.
	got := spec.Occupancy(KernelResources{
		VGPRs: 8, SGPRs: 8, LDSBytesPerWG: 32 << 10, WorkGroupSize: 256,
	})
	if got != 2 {
		t.Errorf("LDS-bound occupancy = %d, want 2", got)
	}
}

func TestOccupancyZeroResources(t *testing.T) {
	spec := MI100()
	if got := spec.Occupancy(KernelResources{}); got != spec.MaxWavesPerSIMD {
		t.Errorf("unconstrained occupancy = %d, want %d", got, spec.MaxWavesPerSIMD)
	}
}

func TestOccupancyHugeLDS(t *testing.T) {
	spec := MI100()
	got := spec.Occupancy(KernelResources{LDSBytesPerWG: 128 << 10, WorkGroupSize: 256})
	if got != 0 {
		t.Errorf("occupancy with oversized LDS = %d, want 0", got)
	}
}

// TestMaxWavesPerCU: every modelled part is GCN-style, 4 SIMDs of 10 wave
// slots, 40 waves per compute unit; occupancy is counted per SIMD.
func TestMaxWavesPerCU(t *testing.T) {
	for _, s := range All() {
		if got := s.MaxWavesPerSIMD * s.SIMDsPerCU; got != 40 {
			t.Errorf("%s: %d SIMDs × %d wave slots = %d per CU, want 40", s.Name, s.SIMDsPerCU, s.MaxWavesPerSIMD, got)
		}
	}
}
