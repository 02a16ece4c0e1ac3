package isa

// builder provides emission helpers over a Program, including loop-region
// tracking for the liveness analysis.
type builder struct {
	p         *Program
	loopStack []int
}

func newBuilder(name string) *builder {
	return &builder{p: NewProgram(name)}
}

func (b *builder) s() Reg { return b.p.newReg(Scalar) }
func (b *builder) v() Reg { return b.p.newReg(Vector) }

func (b *builder) emit(i *Inst) { b.p.Append(i) }

// salu emits a scalar ALU instruction.
func (b *builder) salu(name string, def Reg, uses ...Reg) Reg {
	b.emit(&Inst{Name: name, Unit: SALU, Defs: []Reg{def}, Uses: uses})
	return def
}

// valu emits a vector ALU instruction.
func (b *builder) valu(name string, def Reg, uses ...Reg) Reg {
	b.emit(&Inst{Name: name, Unit: VALU, Defs: []Reg{def}, Uses: uses})
	return def
}

// vcmp emits a vector compare (writes a condition mask — scalar on GCN).
func (b *builder) vcmp(name string, def Reg, uses ...Reg) Reg {
	b.emit(&Inst{Name: name, Unit: VALU, Defs: []Reg{def}, Uses: uses})
	return def
}

// sload emits a scalar memory load (kernel arguments / descriptors).
func (b *builder) sload(name string, def Reg, addr Reg) Reg {
	b.emit(&Inst{Name: name, Unit: SMEM, Defs: []Reg{def}, Uses: []Reg{addr}, Space: ConstSpace, Addr: addr})
	return def
}

// vload emits a global-memory load.
func (b *builder) vload(name string, def Reg, addr Reg, aliasGuarded bool) Reg {
	b.emit(&Inst{
		Name: name, Unit: VMEM, Defs: []Reg{def}, Uses: []Reg{addr},
		Space: GlobalSpace, Addr: addr, AliasGuarded: aliasGuarded,
	})
	return def
}

// vstore emits a global-memory store.
func (b *builder) vstore(name string, addr Reg, val Reg) {
	b.emit(&Inst{
		Name: name, Unit: VMEM, Uses: []Reg{addr, val},
		Space: GlobalSpace, Addr: addr, IsStore: true,
	})
}

// dsread emits an LDS read.
func (b *builder) dsread(name string, def Reg, addr Reg) Reg {
	b.emit(&Inst{Name: name, Unit: LDS, Defs: []Reg{def}, Uses: []Reg{addr}, Space: LocalSpace, Addr: addr})
	return def
}

// dswrite emits an LDS write.
func (b *builder) dswrite(name string, addr Reg, val Reg) {
	b.emit(&Inst{Name: name, Unit: LDS, Uses: []Reg{addr, val}, Space: LocalSpace, Addr: addr, IsStore: true})
}

// atomic emits a global atomic read-modify-write.
func (b *builder) atomic(name string, def Reg, addr Reg) Reg {
	b.emit(&Inst{Name: name, Unit: VMEM, Defs: []Reg{def}, Uses: []Reg{addr}, Space: GlobalSpace, Addr: addr, IsStore: true})
	return def
}

// branch emits a conditional or unconditional branch.
func (b *builder) branch(name string, uses ...Reg) {
	b.emit(&Inst{Name: name, Unit: BRANCH, Uses: uses})
}

// barrier emits s_barrier preceded by the waitcnt GCN requires.
func (b *builder) barrier() {
	b.emit(&Inst{Name: "s_waitcnt", Unit: SYNC})
	b.emit(&Inst{Name: "s_barrier", Unit: SYNC})
}

// beginLoop opens a loop region.
func (b *builder) beginLoop() {
	b.loopStack = append(b.loopStack, len(b.p.Insts))
}

// endLoop closes the innermost loop region, emitting the backedge.
func (b *builder) endLoop(counter Reg) {
	b.branch("s_cbranch_loop", counter)
	begin := b.loopStack[len(b.loopStack)-1]
	b.loopStack = b.loopStack[:len(b.loopStack)-1]
	b.p.Loops = append(b.p.Loops, [2]int{begin, len(b.p.Insts)})
}

func (b *builder) prog() *Program { return b.p }
