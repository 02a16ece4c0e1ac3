package isa

import (
	"strings"
	"testing"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

func TestEncodingSizes(t *testing.T) {
	tests := []struct {
		unit Unit
		want int
	}{
		{SALU, 4}, {VALU, 4}, {BRANCH, 4}, {SYNC, 4},
		{SMEM, 8}, {VMEM, 8}, {LDS, 8},
	}
	for _, tt := range tests {
		if got := encodingBytes(tt.unit); got != tt.want {
			t.Errorf("encodingBytes(%v) = %d, want %d", tt.unit, got, tt.want)
		}
	}
}

func TestProgramBasics(t *testing.T) {
	p := NewProgram("t")
	r1 := p.newReg(Vector)
	r2 := p.newReg(Vector)
	s1 := p.newReg(Scalar)
	if r1 == r2 {
		t.Error("newReg returned duplicate registers")
	}
	if r1.Class != Vector || s1.Class != Scalar {
		t.Error("register classes wrong")
	}
	p.Append(&Inst{Name: "v_mov", Unit: VALU, Defs: []Reg{r1}})
	p.Append(&Inst{Name: "global_load", Unit: VMEM, Defs: []Reg{r2}, Uses: []Reg{r1}})
	if p.CodeBytes() != 4+8 {
		t.Errorf("CodeBytes = %d", p.CodeBytes())
	}
	if p.CountUnit(VMEM) != 1 || p.CountUnit(VALU) != 1 || p.CountUnit(LDS) != 0 {
		t.Error("CountUnit wrong")
	}
	if r1.String() != "%v0" || s1.String() != "%s0" {
		t.Errorf("Reg.String: %s %s", r1, s1)
	}
}

func TestAllocateStraightLine(t *testing.T) {
	p := NewProgram("t")
	a := p.newReg(Vector)
	bReg := p.newReg(Vector)
	c := p.newReg(Vector)
	// a and b live simultaneously; c reuses a dead slot.
	p.Append(&Inst{Name: "def_a", Unit: VALU, Defs: []Reg{a}})
	p.Append(&Inst{Name: "def_b", Unit: VALU, Defs: []Reg{bReg}})
	p.Append(&Inst{Name: "use_ab", Unit: VALU, Defs: []Reg{c}, Uses: []Reg{a, bReg}})
	p.Append(&Inst{Name: "use_c", Unit: VALU, Uses: []Reg{c}})
	d := Allocate(p)
	// Peak simultaneous: a, b, c at the use_ab instruction = 3.
	if d.VGPRs != 3+vgprReserve {
		t.Errorf("VGPRs = %d, want %d", d.VGPRs, 3+vgprReserve)
	}
	if d.SGPRs != sgprReserve {
		t.Errorf("SGPRs = %d, want %d", d.SGPRs, sgprReserve)
	}
}

func TestAllocateLoopExtension(t *testing.T) {
	p := NewProgram("t")
	pre := p.newReg(Vector) // defined before the loop, used inside
	tmp := p.newReg(Vector) // transient inside the loop
	p.Append(&Inst{Name: "def_pre", Unit: VALU, Defs: []Reg{pre}})
	begin := len(p.Insts)
	p.Append(&Inst{Name: "use_pre", Unit: VALU, Defs: []Reg{tmp}, Uses: []Reg{pre}})
	p.Append(&Inst{Name: "use_tmp", Unit: VALU, Uses: []Reg{tmp}})
	p.Append(&Inst{Name: "tail", Unit: SALU, Defs: []Reg{p.newReg(Scalar)}})
	p.Append(&Inst{Name: "backedge", Unit: BRANCH})
	p.Loops = append(p.Loops, [2]int{begin, len(p.Insts)})

	ivs := liveIntervals(p)
	for _, iv := range ivs {
		if iv.reg == pre && iv.end != len(p.Insts)-1 {
			t.Errorf("pre-loop register not extended across loop: end=%d", iv.end)
		}
	}
}

func TestEliminateGuardedReloads(t *testing.T) {
	p := NewProgram("t")
	addr := p.newReg(Vector)
	v1 := p.newReg(Vector)
	v2 := p.newReg(Vector)
	p.Append(&Inst{Name: "addr", Unit: VALU, Defs: []Reg{addr}})
	p.Append(&Inst{Name: "load", Unit: VMEM, Defs: []Reg{v1}, Uses: []Reg{addr}, Space: GlobalSpace, Addr: addr})
	p.Append(&Inst{Name: "reload", Unit: VMEM, Defs: []Reg{v2}, Uses: []Reg{addr}, Space: GlobalSpace, Addr: addr, AliasGuarded: true})
	p.Append(&Inst{Name: "use", Unit: VALU, Uses: []Reg{v2}})

	out := EliminateGuardedReloads(p)
	if len(out.Insts) != 3 {
		t.Fatalf("got %d instructions, want 3 (reload removed)", len(out.Insts))
	}
	last := out.Insts[2]
	if last.Uses[0] != v1 {
		t.Errorf("use not renamed to original load result: %v", last.Uses)
	}
}

func TestEliminateGuardedReloadsKeptAfterStore(t *testing.T) {
	p := NewProgram("t")
	addr := p.newReg(Vector)
	val := p.newReg(Vector)
	v1 := p.newReg(Vector)
	v2 := p.newReg(Vector)
	p.Append(&Inst{Name: "addr", Unit: VALU, Defs: []Reg{addr}})
	p.Append(&Inst{Name: "val", Unit: VALU, Defs: []Reg{val}})
	p.Append(&Inst{Name: "load", Unit: VMEM, Defs: []Reg{v1}, Uses: []Reg{addr}, Space: GlobalSpace, Addr: addr})
	p.Append(&Inst{Name: "store", Unit: VMEM, Uses: []Reg{addr, val}, Space: GlobalSpace, Addr: addr, IsStore: true})
	p.Append(&Inst{Name: "reload", Unit: VMEM, Defs: []Reg{v2}, Uses: []Reg{addr}, Space: GlobalSpace, Addr: addr, AliasGuarded: true})
	p.Append(&Inst{Name: "use", Unit: VALU, Uses: []Reg{v2}})
	out := EliminateGuardedReloads(p)
	if len(out.Insts) != len(p.Insts) {
		t.Error("reload after a same-address store must be kept")
	}
}

// TestTableXShape pins the reproduced Table X against the paper (with the
// row labels corrected per DESIGN.md): code length monotonically falls from
// ~6064 to ~3660 bytes, registers are flat until opt3 drops them and opt4
// raises vector pressure past the occupancy threshold.
func TestTableXShape(t *testing.T) {
	rows := TableX(device.MI100(), 23)
	if len(rows) != 5 {
		t.Fatalf("TableX returned %d rows", len(rows))
	}
	paper := []struct {
		code, sgpr, vgpr, occ int
	}{
		{6064, 22, 64, 10},
		{5852, 22, 64, 10},
		{5408, 22, 64, 10},
		{4408, 10, 57, 10},
		{3660, 10, 82, 9},
	}
	for i, row := range rows {
		p := paper[i]
		if diff := float64(row.CodeBytes-p.code) / float64(p.code); diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: code length %d more than 5%% from paper's %d", row.Variant, row.CodeBytes, p.code)
		}
		if row.SGPRs != p.sgpr {
			t.Errorf("%s: SGPRs = %d, want %d", row.Variant, row.SGPRs, p.sgpr)
		}
		if row.VGPRs != p.vgpr {
			t.Errorf("%s: VGPRs = %d, want %d", row.Variant, row.VGPRs, p.vgpr)
		}
		if row.Occupancy != p.occ {
			t.Errorf("%s: occupancy = %d, want %d", row.Variant, row.Occupancy, p.occ)
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CodeBytes >= rows[i-1].CodeBytes {
			t.Errorf("code length not strictly decreasing at %s", rows[i].Variant)
		}
	}
}

// TestTableXMechanisms checks that each optimization's measurable effect
// comes from the right mechanism, not just the total.
func TestTableXMechanisms(t *testing.T) {
	spec := device.MI60()
	base := ComparerMetrics(kernels.Base, spec, 23)
	opt1 := ComparerMetrics(kernels.Opt1, spec, 23)
	opt2 := ComparerMetrics(kernels.Opt2, spec, 23)
	opt3 := ComparerMetrics(kernels.Opt3, spec, 23)
	opt4 := ComparerMetrics(kernels.Opt4, spec, 23)

	// opt1: only VMEM instructions disappear (guarded reloads).
	if opt1.VMEMInsts >= base.VMEMInsts {
		t.Errorf("opt1 should remove VMEM reloads: %d vs %d", opt1.VMEMInsts, base.VMEMInsts)
	}
	if opt1.LDSInsts != base.LDSInsts {
		t.Errorf("opt1 changed LDS instructions: %d vs %d", opt1.LDSInsts, base.LDSInsts)
	}
	// opt2: more VMEM gone (in-loop loci/flag loads).
	if opt2.VMEMInsts >= opt1.VMEMInsts {
		t.Errorf("opt2 should remove in-loop loads: %d vs %d", opt2.VMEMInsts, opt1.VMEMInsts)
	}
	// opt3: the unrolled leader staging disappears (fewer LDS writes and
	// far fewer VMEM staging loads).
	if opt3.LDSInsts >= opt2.LDSInsts {
		t.Errorf("opt3 should shrink staging LDS traffic: %d vs %d", opt3.LDSInsts, opt2.LDSInsts)
	}
	if opt3.VMEMInsts >= opt2.VMEMInsts {
		t.Errorf("opt3 should shrink staging VMEM traffic: %d vs %d", opt3.VMEMInsts, opt2.VMEMInsts)
	}
	// opt4: the ladder's per-term LDS reads collapse.
	if opt4.LDSInsts >= opt3.LDSInsts/2 {
		t.Errorf("opt4 should collapse ladder LDS reads: %d vs %d", opt4.LDSInsts, opt3.LDSInsts)
	}
	// opt4 trades registers for occupancy: more VGPRs, one wave fewer.
	if opt4.VGPRs <= opt3.VGPRs {
		t.Error("opt4 should raise vector register pressure")
	}
	if opt4.Occupancy >= opt3.Occupancy {
		t.Error("opt4 should lose occupancy")
	}
}

// TestTableXStableAcrossDevices: the ISA metrics are a property of the
// compiled kernel, not the device (occupancy uses the same CDNA rule).
func TestTableXStableAcrossDevices(t *testing.T) {
	a := TableX(device.RadeonVII(), 23)
	b := TableX(device.MI100(), 23)
	for i := range a {
		if a[i].CodeBytes != b[i].CodeBytes || a[i].VGPRs != b[i].VGPRs || a[i].Occupancy != b[i].Occupancy {
			t.Errorf("variant %s differs across devices", a[i].Variant)
		}
	}
}

func TestCompileComparerDeterministic(t *testing.T) {
	p1 := CompileComparer(kernels.Opt3)
	p2 := CompileComparer(kernels.Opt3)
	if p1.CodeBytes() != p2.CodeBytes() || len(p1.Insts) != len(p2.Insts) {
		t.Error("compilation is not deterministic")
	}
}

// TestFinderMetrics checks the finder kernel's compiled footprint: it is
// far smaller and lighter-registered than any comparer variant and never
// bounds occupancy — consistent with §IV.B, where it contributes ~2% of
// kernel time.
func TestFinderMetrics(t *testing.T) {
	for _, spec := range device.All() {
		fm := FinderMetrics(spec, 23)
		base := ComparerMetrics(kernels.Base, spec, 23)
		if fm.CodeBytes >= base.CodeBytes/2 {
			t.Errorf("%s: finder code %d not much smaller than comparer %d",
				spec.Name, fm.CodeBytes, base.CodeBytes)
		}
		if fm.VGPRs >= base.VGPRs {
			t.Errorf("%s: finder VGPRs %d >= comparer %d", spec.Name, fm.VGPRs, base.VGPRs)
		}
		if fm.Occupancy != spec.MaxWavesPerSIMD {
			t.Errorf("%s: finder occupancy %d, want the maximum %d",
				spec.Name, fm.Occupancy, spec.MaxWavesPerSIMD)
		}
	}
}

func TestCompileFinderDeterministic(t *testing.T) {
	a, b := CompileFinder(), CompileFinder()
	if a.CodeBytes() != b.CodeBytes() || len(a.Insts) != len(b.Insts) {
		t.Error("finder compilation not deterministic")
	}
}

func TestListing(t *testing.T) {
	p := CompileComparer(kernels.Opt3)
	l := p.Listing()
	for _, part := range []string{"kernel comparer_opt3", ".loop_", ".endloop", "s_barrier", "global_atomic_inc"} {
		if !strings.Contains(l, part) {
			t.Errorf("listing missing %q", part)
		}
	}
	base := CompileComparer(kernels.Base)
	if !strings.Contains(base.Listing(), "alias-guarded reload") {
		t.Error("base listing should mark guarded reloads")
	}
	if strings.Contains(l, "alias-guarded reload") {
		t.Error("restrict-processed listing should have no guarded reloads")
	}
}

func TestSummary(t *testing.T) {
	s := CompileComparer(kernels.Base).Summary()
	for _, part := range []string{"B", "vmem=", "lds=", "valu="} {
		if !strings.Contains(s, part) {
			t.Errorf("summary %q missing %q", s, part)
		}
	}
}
