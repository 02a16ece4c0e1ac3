// Package isa models the compilation of the comparer kernel variants to a
// GCN/CDNA-style instruction set, standing in for the ROCm assembler and
// the ISA-level statistics the paper collects in Table X (§IV.B): total
// instruction bytes ("code length"), scalar and vector register usage, and
// the occupancy those registers permit.
//
// The model is a small but real pipeline: each kernel variant is emitted as
// an instruction stream with virtual registers (the emission differences —
// alias-guarded reloads, register promotion, cooperative fetch, LDS-read
// promotion — mirror what the paper's optimizations change in the generated
// code), a redundant-load-elimination pass implements the effect of
// __restrict, live intervals are computed over loop regions, and a
// linear-scan-style allocator reports the peak register demand that bounds
// occupancy. Absolute byte counts are calibrated to the paper's scale; the
// reproduced quantity is the shape: lengths fall monotonically base→opt4
// while opt4's vector-register demand crosses the occupancy threshold.
package isa

import "fmt"

// RegClass distinguishes scalar (wavefront-wide) from vector (per-lane)
// registers.
type RegClass int

// Register classes.
const (
	Scalar RegClass = iota + 1
	Vector
)

func (c RegClass) String() string {
	switch c {
	case Scalar:
		return "s"
	case Vector:
		return "v"
	default:
		return "?"
	}
}

// Reg is a virtual register.
type Reg struct {
	Class RegClass
	ID    int
}

func (r Reg) String() string { return fmt.Sprintf("%%%s%d", r.Class, r.ID) }

// Unit is the functional unit an instruction executes on; it determines the
// encoding size.
type Unit int

// Functional units.
const (
	SALU   Unit = iota + 1 // scalar ALU: 4-byte SOP encodings
	VALU                   // vector ALU: 4-byte VOP encodings
	SMEM                   // scalar memory: 8-byte loads of kernel arguments
	VMEM                   // vector (global) memory: 8-byte FLAT/MUBUF
	LDS                    // shared local memory: 8-byte DS
	BRANCH                 // 4-byte SOPP branches
	SYNC                   // 4-byte barriers and waitcnts
)

// encodingBytes returns the instruction size for a unit, following the
// GCN/CDNA encodings (VOP/SOP 4 bytes; FLAT, MUBUF, SMEM and DS 8 bytes).
func encodingBytes(u Unit) int {
	switch u {
	case SMEM, VMEM, LDS:
		return 8
	default:
		return 4
	}
}

// MemSpace tags memory instructions for the alias-analysis pass.
type MemSpace int

// Memory spaces.
const (
	NoSpace MemSpace = iota
	GlobalSpace
	LocalSpace
	ConstSpace
)

// Inst is one instruction.
type Inst struct {
	// Name is the mnemonic, for listings and tests.
	Name string
	// Unit fixes the encoding size.
	Unit Unit
	// Defs and Uses are the virtual registers written and read.
	Defs []Reg
	Uses []Reg
	// Space and Addr describe memory instructions: the address space and
	// the register holding the address, used by redundant-load elimination.
	Space MemSpace
	Addr  Reg
	// IsStore marks memory writes (they invalidate pending loads in the
	// same space unless the pointers are __restrict-qualified).
	IsStore bool
	// AliasGuarded marks a reload the compiler emitted only because it
	// could not prove the address unmodified; __restrict (opt1) licenses
	// the redundant-load-elimination pass to drop it.
	AliasGuarded bool
}

// Bytes returns the encoded size of the instruction.
func (i *Inst) Bytes() int { return encodingBytes(i.Unit) }

// Program is an emitted kernel: an instruction stream plus the loop regions
// needed for liveness.
type Program struct {
	Name  string
	Insts []*Inst
	// Loops are [begin, end) instruction index ranges; a register live
	// anywhere inside a loop is treated as live across the whole loop.
	Loops [][2]int

	nextID map[RegClass]int
}

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, nextID: map[RegClass]int{Scalar: 0, Vector: 0}}
}

// newReg allocates a fresh virtual register.
func (p *Program) newReg(c RegClass) Reg {
	id := p.nextID[c]
	p.nextID[c]++
	return Reg{Class: c, ID: id}
}

// Append adds an instruction and returns its index.
func (p *Program) Append(i *Inst) int {
	p.Insts = append(p.Insts, i)
	return len(p.Insts) - 1
}

// CodeBytes returns the total encoded size — the "code length" row of
// Table X.
func (p *Program) CodeBytes() int {
	n := 0
	for _, i := range p.Insts {
		n += i.Bytes()
	}
	return n
}

// CountUnit returns how many instructions execute on the unit.
func (p *Program) CountUnit(u Unit) int {
	n := 0
	for _, i := range p.Insts {
		if i.Unit == u {
			n++
		}
	}
	return n
}
