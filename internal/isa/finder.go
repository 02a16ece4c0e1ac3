package isa

import (
	"fmt"

	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// emitFinder builds the instruction stream of the finder (search) kernel:
// the same leader-staged pattern tables and barrier as the comparer, then a
// short PAM ladder per strand (the search pattern has only a handful of
// non-N positions) and an atomic compaction of matching loci. The kernel is
// far smaller and lighter-registered than the comparer, which is why it
// never bounds occupancy and contributes ~2% of kernel time (§IV.B).
func emitFinder() *Program {
	b := newBuilder("finder")

	kernarg := b.s()
	b.salu("s_mov_kernarg", kernarg)
	ptrNames := []string{"chr", "pat", "pat_index", "loci", "flags", "count"}
	ptrs := make(map[string]Reg, len(ptrNames))
	for _, n := range ptrNames {
		ptrs[n] = b.sload("s_load_dwordx2 "+n, b.s(), kernarg)
	}
	sites := b.sload("s_load_dword sites", b.s(), kernarg)
	plen := b.sload("s_load_dword plen", b.s(), kernarg)

	i := b.valu("v_global_id", b.v())
	li := b.valu("v_sub_li", b.v(), i)
	residentV := []Reg{b.valu("v_mov_resident", b.v()), b.valu("v_mov_resident", b.v())}

	// Leader staging of the pattern tables (constant memory on this
	// kernel), moderately unrolled and pipelined.
	const prefetchUnroll, prefetchDepth = 12, 6
	leaderMask := b.salu("s_cmp_li_eq0", b.s(), li)
	b.branch("s_cbranch_not_leader", leaderMask)
	cnt := b.s()
	b.salu("s_mov_trip", cnt, plen)
	b.beginLoop()
	for g := 0; g < prefetchUnroll; g += prefetchDepth {
		type slot struct{ addrP, addrI, p, x Reg }
		depth := prefetchDepth
		if g+depth > prefetchUnroll {
			depth = prefetchUnroll - g
		}
		slots := make([]slot, depth)
		for d := range slots {
			ap := b.valu("v_addr_pat", b.v(), ptrs["pat"])
			ai := b.valu("v_addr_idx", b.v(), ptrs["pat_index"])
			slots[d] = slot{
				addrP: ap,
				addrI: ai,
				p:     b.sload("s_load_pat", b.v(), ap),
				x:     b.sload("s_load_idx", b.v(), ai),
			}
		}
		for _, s := range slots {
			b.dswrite("ds_write_b8", s.addrP, s.p)
			b.dswrite("ds_write_b32", s.addrI, s.x)
		}
	}
	b.endLoop(cnt)
	b.barrier()

	inRange := b.salu("s_cmp_lt_sites", b.s(), sites)
	b.branch("s_cbranch_out_of_range", inRange)

	// Two strand checks; the PAM ladder is unrolled over the few non-N
	// positions (2-3 for an NRG/NGG PAM).
	const pamUnroll = 3
	for half := 0; half < 2; half++ {
		suffix := fmt.Sprintf(" half%d", half)
		match := b.valu("v_mov_match"+suffix, b.v())
		for u := 0; u < pamUnroll; u++ {
			idxAddr := b.valu("v_addr_lidx"+suffix, b.v(), li)
			k := b.dsread("ds_read_b32 l_pat_index[j]"+suffix, b.v(), idxAddr)
			b.vcmp("v_cmp_k_neg1"+suffix, b.s(), k)
			b.branch("s_cbranch_end"+suffix, k)
			chrAddr := b.valu("v_addr_chr"+suffix, b.v(), i, k)
			b.valu("v_addc_chr"+suffix, chrAddr, chrAddr)
			chr := b.vload("global_load_ubyte chr"+suffix, b.v(), chrAddr, false)
			pat := b.dsread("ds_read_u8 l_pat[k]"+suffix, b.v(), k)
			// The PAM codes are few; the compiler emits a short ladder.
			for term := 0; term < 4; term++ {
				acc := b.vcmp("v_cmp_pat"+suffix, b.s(), pat)
				b.vcmp("v_cmp_chr"+suffix, acc, chr, acc)
				b.salu("s_or"+suffix, acc, acc)
			}
			b.valu("v_and_match"+suffix, match, match, chr)
		}
		b.vcmp("v_cmp_match"+suffix, b.s(), match)
		b.branch("s_cbranch_no_match"+suffix, match)
	}

	// Compaction: atomic slot then the loci and flag stores.
	entryAddr := b.valu("v_addr_count", b.v(), ptrs["count"])
	old := b.atomic("global_atomic_inc", b.v(), entryAddr)
	lociAddr := b.valu("v_addr_loci", b.v(), ptrs["loci"], old)
	b.valu("v_addc_loci", lociAddr, lociAddr)
	b.vstore("global_store_loci", lociAddr, i)
	flagAddr := b.valu("v_addr_flags", b.v(), ptrs["flags"], old)
	b.vstore("global_store_flags", flagAddr, old)

	uses := make([]Reg, 0, len(ptrNames)+len(residentV))
	for _, n := range ptrNames {
		uses = append(uses, ptrs[n])
	}
	uses = append(uses, residentV...)
	b.emit(&Inst{Name: "s_endpgm", Unit: BRANCH, Uses: uses})
	return b.prog()
}

// CompileFinder lowers the finder kernel (it has a single variant: the
// paper's optimizations target only the comparer hotspot). The result is
// memoized (see cache.go) and must be treated as read-only.
func CompileFinder() *Program { return compiledFinder().prog }

// FinderMetrics compiles the finder and reports its resource usage and
// occupancy for the device, with the LDS footprint of a plen-base pattern
// and the standard 256-item work-group.
func FinderMetrics(spec device.Spec, plen int) Metrics {
	return finderMetricsAt(spec, plen, DefaultWorkGroupSize)
}

// finderMetricsAt is FinderMetrics at an explicit work-group size.
func finderMetricsAt(spec device.Spec, plen, wg int) Metrics {
	return compiledFinder().metrics(spec, kernels.FinderLocalBytes(plen), wg, RegDemand{})
}
