package isa

import (
	"fmt"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// emitCfg captures how the compiler lowers each comparer variant. The
// fields mirror the paper's optimizations: guarded reloads exist until
// __restrict (opt1) licenses their removal, loci/flag loads sit inside the
// comparison loop until they are registered (opt2), the pattern staging
// loop is a serialised leader loop until the fetch is cooperative (opt3),
// and shared-local reads repeat per ladder term until they are promoted to
// a register (opt4, which also deepens the load pipeline and with it the
// vector-register demand).
type emitCfg struct {
	coop           bool // cooperative prefetch (opt3+)
	prefetchUnroll int  // static unroll of the leader staging loop
	prefetchDepth  int  // staging load groups kept in flight
	ladderUnroll   int  // static unroll of the comparison loop
	ladderDepth    int  // comparison load groups kept in flight
	guardedFlag    bool // alias-guarded extra flag reload per half
	guardedChr     bool // alias-guarded chr reload per iteration
	guardedLoci    int  // alias-guarded loci reloads per unrolled block
	lociInLoop     bool // genuine loci load per iteration (removed at opt2)
	flagInHalf     bool // flag loaded per half (moved to prologue at opt2)
	dsPerTerms     int  // ladder terms served per LDS read (2 until opt4)
	promotedExtras int  // extra promoted values in flight per iteration (opt4)
	orFoldPer      int  // ladder terms per folded s_or (opt4 VOP3 folding)
	sgprResident   int  // resident scalar descriptors / saved-exec masks
	vgprResident   int  // resident vector state (id triple, scratch base)
}

// ladderTerms is the static length of the degenerate-base comparison ladder
// the compiler emits per guide position (the 13 conditions of Listing 1).
const ladderTerms = 13

func configFor(v kernels.ComparerVariant) emitCfg {
	cfg := emitCfg{
		prefetchUnroll: 23,
		prefetchDepth:  11,
		ladderUnroll:   8,
		ladderDepth:    4,
		dsPerTerms:     2,
		sgprResident:   5,
		vgprResident:   3,
	}
	switch v {
	case kernels.Base:
		cfg.guardedFlag = true
		cfg.guardedChr = true
		cfg.guardedLoci = 2
		cfg.lociInLoop = true
		cfg.flagInHalf = true
	case kernels.Opt1:
		// Same emission as base; EliminateGuardedReloads removes the
		// guarded loads afterwards.
		cfg.guardedFlag = true
		cfg.guardedChr = true
		cfg.guardedLoci = 2
		cfg.lociInLoop = true
		cfg.flagInHalf = true
	case kernels.Opt2:
		// loci[i] and flag[i] registered in the prologue.
	case kernels.Opt3:
		cfg.coop = true
		cfg.ladderDepth = 8
		cfg.sgprResident = 2
		cfg.vgprResident = 6
	case kernels.Opt4:
		cfg.coop = true
		cfg.ladderDepth = 8
		cfg.sgprResident = 2
		cfg.vgprResident = 8
		cfg.dsPerTerms = ladderTerms // one LDS read per iteration
		cfg.promotedExtras = 3
		cfg.orFoldPer = 6
	}
	return cfg
}

// CompileComparer lowers a comparer variant to the pseudo-ISA and returns
// the program after the passes the variant enables. The result is memoized
// per variant (see cache.go) and must be treated as read-only.
func CompileComparer(v kernels.ComparerVariant) *Program { return compiledComparer(v).prog }

// emitComparer builds the instruction stream of Listing 1 under cfg.
func emitComparer(name string, cfg emitCfg) *Program {
	b := newBuilder(name)

	// Prologue: load kernel arguments. Nine buffer pointers plus the
	// scalar arguments of the kernel signature.
	kernarg := b.s()
	b.salu("s_mov_kernarg", kernarg)
	ptrNames := []string{"chr", "loci", "mm_loci", "comp", "comp_index", "flag", "mm_count", "direction", "entrycount"}
	ptrs := make(map[string]Reg, len(ptrNames))
	var vaddrs map[string][2]Reg
	if cfg.coop {
		vaddrs = make(map[string][2]Reg, len(ptrNames))
	}
	for _, n := range ptrNames {
		s := b.sload("s_load_dwordx2 "+n, b.s(), kernarg)
		if cfg.coop {
			// Cooperative addressing: per-lane 64-bit flat address pairs
			// are computed immediately and the scalar pointer dies here;
			// the pairs stay resident for the whole kernel.
			lo := b.valu("v_add_"+n+"_lo", b.v(), s)
			hi := b.valu("v_addc_"+n+"_hi", b.v(), s, lo)
			vaddrs[n] = [2]Reg{lo, hi}
		} else {
			ptrs[n] = s
		}
	}
	// Resident scalar state the linear model does not derive from the
	// instruction stream: buffer descriptors and saved-exec masks for the
	// divergent branch nest. They are defined here and alive to s_endpgm.
	residentS := make([]Reg, cfg.sgprResident)
	for k := range residentS {
		residentS[k] = b.salu("s_mov_resident", b.s())
	}
	// Resident vector state: the work-item id triple and scratch/flat
	// bases the ABI keeps live for the whole kernel.
	residentV := make([]Reg, cfg.vgprResident)
	for k := range residentV {
		residentV[k] = b.valu("v_mov_resident", b.v())
	}
	locicnt := b.sload("s_load_dword locicnt", b.s(), kernarg)
	threshold := b.sload("s_load_dword threshold", b.s(), kernarg)
	plen := b.sload("s_load_dword plen", b.s(), kernarg)

	// Work-item coordinates: i and li (L0-L1 of Listing 1).
	i := b.valu("v_global_id", b.v())
	li := b.valu("v_sub_li", b.v(), i)

	// Residency anchor for the coop addressing mode: the flat address
	// pairs stay live until the epilogue (they are used by the stores).
	useAll := func(regs map[string][2]Reg) []Reg {
		out := make([]Reg, 0, 2*len(regs))
		for _, n := range ptrNames {
			out = append(out, regs[n][0], regs[n][1])
		}
		return out
	}

	// Pattern staging to LDS (L2-L8): leader loop or cooperative loop.
	var locus, flag Reg
	if cfg.coop {
		stride := b.valu("v_stride", b.v(), li)
		cnt := b.s()
		b.salu("s_mov_trip", cnt, plen)
		b.beginLoop()
		addrC := b.valu("v_addr_comp", b.v(), stride)
		addrI := b.valu("v_addr_idx", b.v(), stride)
		c := b.vload("global_load_ubyte comp", b.v(), addrC, false)
		x := b.vload("global_load_dword comp_index", b.v(), addrI, false)
		b.dswrite("ds_write_b8", addrC, c)
		b.dswrite("ds_write_b32", addrI, x)
		b.valu("v_add_stride", stride, stride)
		b.endLoop(cnt)
	} else {
		leaderMask := b.salu("s_cmp_li_eq0", b.s(), li)
		b.branch("s_cbranch_not_leader", leaderMask)
		cnt := b.s()
		b.salu("s_mov_trip", cnt, plen)
		b.beginLoop()
		// Software-pipelined groups: prefetchDepth iterations' loads are
		// issued before their stores, holding their registers live
		// together.
		for g := 0; g < cfg.prefetchUnroll; g += cfg.prefetchDepth {
			type slot struct{ addrC, addrHi, addrI, c, x Reg }
			depth := cfg.prefetchDepth
			if g+depth > cfg.prefetchUnroll {
				depth = cfg.prefetchUnroll - g
			}
			slots := make([]slot, depth)
			for d := range slots {
				ac := b.valu("v_addr_comp", b.v(), ptrs["comp"])
				ah := b.valu("v_addc_comp", b.v(), ac)
				ai := b.valu("v_addr_idx", b.v(), ptrs["comp_index"])
				slots[d] = slot{
					addrC:  ac,
					addrHi: ah,
					addrI:  ai,
					c:      b.vload("global_load_ubyte comp", b.v(), ac, false),
					x:      b.vload("global_load_dword comp_index", b.v(), ai, false),
				}
			}
			for _, s := range slots {
				b.dswrite("ds_write_b8", s.addrC, s.c)
				b.dswrite("ds_write_b32", s.addrI, s.x)
				b.valu("v_nop_hi_use", s.addrHi, s.addrHi)
			}
		}
		b.endLoop(cnt)
	}
	b.barrier()

	// Bounds check (items padding the last group).
	inRange := b.salu("s_cmp_lt_locicnt", b.s(), locicnt)
	b.branch("s_cbranch_out_of_range", inRange)

	// Registered reads of opt2+: loci[i] and flag[i] read once per item,
	// scheduled after the staging barrier where they are first needed.
	if !cfg.flagInHalf {
		la := b.valu("v_addr_loci_i", b.v(), i)
		locus = b.vload("global_load_dword loci[i]", b.v(), la, false)
		fa := b.valu("v_addr_flag_i", b.v(), i)
		flag = b.vload("global_load_ubyte flag[i]", b.v(), fa, false)
	}

	// Two strand halves (L9-L24 and L26-L42).
	for half := 0; half < 2; half++ {
		suffix := fmt.Sprintf(" half%d", half)
		if cfg.flagInHalf {
			fa := b.valu("v_addr_flag_i"+suffix, b.v(), i)
			flag = b.vload("global_load_ubyte flag[i]"+suffix, b.v(), fa, false)
			if cfg.guardedFlag {
				// The second flag[i] == X read of the condition.
				b.vload("global_load_ubyte flag[i] reload"+suffix, b.v(), fa, true)
			}
		}
		cond := b.vcmp("v_cmp_flag"+suffix, b.s(), flag)
		b.branch("s_cbranch_skip_half"+suffix, cond)

		mm := b.valu("v_mov_mm0"+suffix, b.v()) // L10: lmm_count = 0
		trip := b.s()
		b.salu("s_mov_trip"+suffix, trip, plen)
		b.beginLoop()
		for g := 0; g < cfg.ladderUnroll; g += cfg.ladderDepth {
			depth := cfg.ladderDepth
			if g+depth > cfg.ladderUnroll {
				depth = cfg.ladderUnroll - g
			}
			type slot struct {
				k, pat, chr, chr2 Reg
				extras            []Reg
			}
			slots := make([]slot, depth)
			// Load group: issue all loads for the next `depth` iterations.
			for d := range slots {
				idxAddr := b.valu("v_addr_lidx"+suffix, b.v(), li)
				k := b.dsread("ds_read_b32 l_comp_index[j]"+suffix, b.v(), idxAddr)
				b.vcmp("v_cmp_k_neg1"+suffix, b.s(), k)
				b.branch("s_cbranch_end"+suffix, k)

				if cfg.lociInLoop {
					lAddr := b.valu("v_addr_loci"+suffix, b.v(), i)
					b.valu("v_lshl_loci"+suffix, lAddr, lAddr)
					b.valu("v_addc_loci"+suffix, lAddr, lAddr)
					locus = b.vload("global_load_dword loci[i]"+suffix, b.v(), lAddr, false)
					b.emit(&Inst{Name: "s_waitcnt vmcnt", Unit: SYNC})
					if d < cfg.guardedLoci {
						b.vload("global_load_dword loci[i] reload"+suffix, b.v(), lAddr, true)
					}
				}

				base := locus
				chrAddr := b.valu("v_addr_chr"+suffix, b.v(), base, k)
				b.valu("v_addc_chr"+suffix, chrAddr, chrAddr)
				chr := b.vload("global_load_ubyte chr"+suffix, b.v(), chrAddr, false)
				chr2 := b.vload("global_load_ushort chr pair"+suffix, b.v(), chrAddr, false)
				patAddr := b.valu("v_addr_lcomp"+suffix, b.v(), k)
				var pat Reg
				var extras []Reg
				if cfg.dsPerTerms >= ladderTerms {
					pat = b.dsread("ds_read_u8 l_comp[k]"+suffix, b.v(), patAddr)
					for e := 0; e < cfg.promotedExtras; e++ {
						extras = append(extras, b.valu("v_mov_promoted"+suffix, b.v(), pat))
					}
				} else {
					pat = patAddr // ladder re-reads LDS itself
				}
				if cfg.guardedChr {
					b.vload("global_load_ubyte chr reload"+suffix, b.v(), chrAddr, true)
				}
				slots[d] = slot{k: k, pat: pat, chr: chr, chr2: chr2, extras: extras}
			}
			// Ladder group: evaluate the 13-way condition of L14/L31.
			for _, s := range slots {
				patVal := s.pat
				for term := 0; term < ladderTerms; term++ {
					if cfg.dsPerTerms < ladderTerms && term%cfg.dsPerTerms == 0 {
						patVal = b.dsread("ds_read_u8 l_comp[k] term"+suffix, b.v(), s.pat)
					}
					acc := b.vcmp("v_cmp_pat_code"+suffix, b.s(), patVal)
					if term%2 == 0 {
						// Two-base arms (R, M, K, ... compare the genome
						// byte against two codes).
						b.vcmp("v_cmp_chr_code"+suffix, acc, s.chr2, acc)
					}
					if cfg.orFoldPer == 0 || term%cfg.orFoldPer != 0 {
						b.salu("s_or_cond"+suffix, acc, acc)
					}
				}
				mmUses := append([]Reg{mm, s.chr}, s.extras...)
				b.valu("v_add_mm"+suffix, mm, mmUses...)
				cmpT := b.vcmp("v_cmp_mm_thresh"+suffix, b.s(), mm, threshold)
				b.branch("s_cbranch_break"+suffix, cmpT)
			}
		}
		b.endLoop(trip)

		// Store section (L19-L23): atomic slot then three stores.
		pass := b.vcmp("v_cmp_mm_le"+suffix, b.s(), mm, threshold)
		b.branch("s_cbranch_skip_store"+suffix, pass)
		var entryAddr Reg
		if cfg.coop {
			entryAddr = vaddrs["entrycount"][0]
		} else {
			entryAddr = b.valu("v_addr_entry"+suffix, b.v(), ptrs["entrycount"])
		}
		old := b.atomic("global_atomic_inc"+suffix, b.v(), entryAddr)
		storeTo := func(n string, val Reg) {
			var a Reg
			if cfg.coop {
				a = b.valu("v_addr_"+n+suffix, b.v(), vaddrs[n][0], vaddrs[n][1], old)
			} else {
				a = b.valu("v_addr_"+n+suffix, b.v(), ptrs[n], old)
			}
			b.valu("v_addc_"+n+suffix, a, a)
			b.vstore("global_store_"+n+suffix, a, val)
		}
		dir := b.valu("v_mov_dir"+suffix, b.v())
		storeTo("mm_count", mm)
		storeTo("direction", dir)
		if cfg.lociInLoop {
			// The base kernel reloads loci[i] once more for mm_loci[old].
			la := b.valu("v_addr_loci_store"+suffix, b.v(), i)
			locus = b.vload("global_load_dword loci[i] store"+suffix, b.v(), la, true)
		}
		storeTo("mm_loci", locus)
	}

	// Epilogue: the coop addressing pairs are used by the final stores;
	// s_endpgm.
	var uses []Reg
	if cfg.coop {
		uses = useAll(vaddrs)
	} else {
		for _, n := range ptrNames {
			uses = append(uses, ptrs[n])
		}
	}
	uses = append(uses, residentS...)
	uses = append(uses, residentV...)
	b.emit(&Inst{Name: "s_endpgm", Unit: BRANCH, Uses: uses})
	return b.prog()
}

// Metrics are the Table X columns for one kernel variant.
type Metrics struct {
	Variant   kernels.ComparerVariant
	CodeBytes int
	SGPRs     int
	VGPRs     int
	Occupancy int // waves per SIMD on the given device
	LDSInsts  int
	VMEMInsts int
}

// ComparerMetrics compiles a variant and reports its Table X metrics for
// the device, using the kernel's LDS footprint for a guide of plen bases
// and the standard 256-item work-group.
func ComparerMetrics(v kernels.ComparerVariant, spec device.Spec, plen int) Metrics {
	return ComparerMetricsAt(v, spec, plen, DefaultWorkGroupSize)
}

// ComparerMetricsAt is ComparerMetrics at an explicit work-group size: the
// occupancy column is evaluated for wg-item groups instead of the standard
// 256. The autotuner scores candidate work-group sizes through this entry
// point.
func ComparerMetricsAt(v kernels.ComparerVariant, spec device.Spec, plen, wg int) Metrics {
	return compiledComparer(v).metrics(spec, kernels.ComparerLocalBytes(plen), wg, RegDemand{})
}

// TableX returns the metrics for every variant in order, the full Table X.
func TableX(spec device.Spec, plen int) []Metrics {
	out := make([]Metrics, 0, len(kernels.Variants()))
	for _, v := range kernels.Variants() {
		out = append(out, ComparerMetrics(v, spec, plen))
	}
	return out
}
