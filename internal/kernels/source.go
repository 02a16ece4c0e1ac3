package kernels

import (
	"fmt"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/opencl"
)

// Argument-slot helpers for the OpenCL builder functions.

func memSlice[T any](args []any, i int) ([]T, error) {
	m, ok := args[i].(*opencl.Mem)
	if !ok {
		return nil, fmt.Errorf("kernels: argument %d: want *opencl.Mem, got %T", i, args[i])
	}
	s, err := opencl.Slice[T](m)
	if err != nil {
		return nil, fmt.Errorf("kernels: argument %d: %w", i, err)
	}
	return s, nil
}

func scalar[T any](args []any, i int) (T, error) {
	v, ok := args[i].(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("kernels: argument %d: want %T, got %T", i, zero, args[i])
	}
	return v, nil
}

func localSlots(args []any, i int, elemBytes int) (int, error) {
	l, ok := args[i].(gpu.LocalArg)
	if !ok {
		return 0, fmt.Errorf("kernels: argument %d: want __local size, got %T", i, args[i])
	}
	if l.Bytes%elemBytes != 0 {
		return 0, fmt.Errorf("kernels: argument %d: local size %d not a multiple of %d", i, l.Bytes, elemBytes)
	}
	return l.Bytes / elemBytes, nil
}

// Finder argument-slot order for the OpenCL frontend, following the kernel
// signature of Table VI with the flat count buffer replaced by the output
// arena's state (page geometry scalars, page cursor, per-group counters and
// page table, overflow counter), plus a trailing slot for the chunk's
// ChunkView.
const (
	FinderArgChr = iota
	FinderArgPat
	FinderArgPatIndex
	FinderArgPatternLen
	FinderArgSites
	FinderArgLoci
	FinderArgFlags
	FinderArgPageSlots
	FinderArgPages
	FinderArgPageCursor
	FinderArgGroupCount
	FinderArgGroupPage
	FinderArgOverflow
	FinderArgLocalPat
	FinderArgLocalPatIndex
	FinderArgView
	finderNumArgs
)

// Comparer argument-slot order for the OpenCL frontend, following the
// signature of Listing 1 with the "entrycount" cursor replaced by the
// output arena's state, plus a trailing slot for the chunk's ChunkView.
const (
	ComparerArgLociCount = iota
	ComparerArgChr
	ComparerArgLoci
	ComparerArgMMLoci
	ComparerArgComp
	ComparerArgCompIndex
	ComparerArgPatternLen
	ComparerArgThreshold
	ComparerArgFlags
	ComparerArgMMCount
	ComparerArgDirection
	ComparerArgPageSlots
	ComparerArgPages
	ComparerArgPageCursor
	ComparerArgGroupCount
	ComparerArgGroupPage
	ComparerArgOverflow
	ComparerArgLocalComp
	ComparerArgLocalCompIndex
	ComparerArgView
	comparerNumArgs
)

// Gather argument-slot order for the OpenCL frontend: the entry count, the
// finder arena's geometry scalars and group tables, the page-strided finder
// outputs, the dense outputs and the __local offsets array.
const (
	GatherArgLociCount = iota
	GatherArgPageSlots
	GatherArgPages
	GatherArgGroupCount
	GatherArgGroupPage
	GatherArgLoci
	GatherArgFlags
	GatherArgOutLoci
	GatherArgOutFlags
	GatherArgLocalSums
	gatherNumArgs
)

// arenaSlots parses the six arena argument slots starting at base: the
// page-size and page-count scalars, then the cursor, group-counter,
// group-page and overflow buffers.
func arenaSlots(kernel string, args []any, base int) (*alloc.Device, error) {
	pageSlots, err := scalar[int32](args, base)
	if err != nil {
		return nil, err
	}
	pages, err := scalar[int32](args, base+1)
	if err != nil {
		return nil, err
	}
	cursor, err := memSlice[uint32](args, base+2)
	if err != nil {
		return nil, err
	}
	count, err := memSlice[uint32](args, base+3)
	if err != nil {
		return nil, err
	}
	pageOf, err := memSlice[uint32](args, base+4)
	if err != nil {
		return nil, err
	}
	overflow, err := memSlice[uint32](args, base+5)
	if err != nil {
		return nil, err
	}
	if len(cursor) < 1 || len(overflow) < 1 {
		return nil, fmt.Errorf("kernels: %s: empty arena cursor or overflow buffer", kernel)
	}
	return &alloc.Device{
		PageSlots: int(pageSlots),
		Pages:     int(pages),
		Cursor:    &cursor[0],
		Count:     count,
		PageOf:    pageOf,
		Overflow:  &overflow[0],
	}, nil
}

// ComparerKernelName returns the registry name of a comparer variant
// ("comparer" for the baseline, "comparer_optN" for the optimizations).
func ComparerKernelName(v ComparerVariant) string {
	if v == Base {
		return "comparer"
	}
	return "comparer_" + v.String()
}

// CLSource returns the OpenCL program source registry holding the finder,
// every comparer variant and the gather, keyed by kernel name. It is the argument to
// Context.CreateProgramWithSource, standing in for the application's
// OpenCL C source string.
func CLSource() opencl.Source {
	src := opencl.Source{
		"finder":         {NumArgs: finderNumArgs, BuildPhases: buildFinderPhases},
		GatherKernelName: {NumArgs: gatherNumArgs, BuildPhases: buildGatherPhases},
	}
	for _, v := range Variants() {
		src[ComparerKernelName(v)] = opencl.KernelBuilder{NumArgs: comparerNumArgs, BuildPhases: buildComparerPhases(v)}
	}
	return src
}

// finderSlots parses the finder's bound argument slots, returning the kernel arguments and the element counts of the two local
// staging arrays.
func finderSlots(args []any) (fa *FinderArgs, lPatN, lIdxN int, err error) {
	chr, err := memSlice[byte](args, FinderArgChr)
	if err != nil {
		return nil, 0, 0, err
	}
	pat, err := memSlice[byte](args, FinderArgPat)
	if err != nil {
		return nil, 0, 0, err
	}
	patIndex, err := memSlice[int32](args, FinderArgPatIndex)
	if err != nil {
		return nil, 0, 0, err
	}
	plen, err := scalar[int32](args, FinderArgPatternLen)
	if err != nil {
		return nil, 0, 0, err
	}
	sites, err := scalar[uint32](args, FinderArgSites)
	if err != nil {
		return nil, 0, 0, err
	}
	loci, err := memSlice[uint32](args, FinderArgLoci)
	if err != nil {
		return nil, 0, 0, err
	}
	flags, err := memSlice[byte](args, FinderArgFlags)
	if err != nil {
		return nil, 0, 0, err
	}
	arena, err := arenaSlots("finder", args, FinderArgPageSlots)
	if err != nil {
		return nil, 0, 0, err
	}
	lPatN, err = localSlots(args, FinderArgLocalPat, 1)
	if err != nil {
		return nil, 0, 0, err
	}
	lIdxN, err = localSlots(args, FinderArgLocalPatIndex, 4)
	if err != nil {
		return nil, 0, 0, err
	}
	view, err := scalar[ChunkView](args, FinderArgView)
	if err != nil {
		return nil, 0, 0, err
	}
	fa = &FinderArgs{
		Chr:       chr,
		ChunkView: view,
		Pattern: &PatternPair{
			Codes:      pat,
			Index:      patIndex,
			PatternLen: int(plen),
		},
		Sites: int(sites),
		Loci:  loci,
		Flags: flags,
		Arena: arena,
	}
	return fa, lPatN, lIdxN, nil
}

func buildFinderPhases(args []any) (gpu.PhaseKernel, error) {
	fa, lPatN, lIdxN, err := finderSlots(args)
	if err != nil {
		return nil, err
	}
	f, err := NewFinder(fa)
	if err != nil {
		return nil, err
	}
	// The __local arrays are allocated once per worker and reused across
	// its groups; the stage phase overwrites them before the scan reads.
	return func() []gpu.Phase {
		return f.Phases(make([]byte, lPatN), make([]int32, lIdxN))
	}, nil
}

// comparerSlots parses the comparer's bound argument slots, returning the kernel arguments and the element counts of the two local
// staging arrays.
func comparerSlots(args []any) (ca *ComparerArgs, lCompN, lIdxN int, err error) {
	lociCount, err := scalar[uint32](args, ComparerArgLociCount)
	if err != nil {
		return nil, 0, 0, err
	}
	chr, err := memSlice[byte](args, ComparerArgChr)
	if err != nil {
		return nil, 0, 0, err
	}
	loci, err := memSlice[uint32](args, ComparerArgLoci)
	if err != nil {
		return nil, 0, 0, err
	}
	mmLoci, err := memSlice[uint32](args, ComparerArgMMLoci)
	if err != nil {
		return nil, 0, 0, err
	}
	comp, err := memSlice[byte](args, ComparerArgComp)
	if err != nil {
		return nil, 0, 0, err
	}
	compIndex, err := memSlice[int32](args, ComparerArgCompIndex)
	if err != nil {
		return nil, 0, 0, err
	}
	plen, err := scalar[int32](args, ComparerArgPatternLen)
	if err != nil {
		return nil, 0, 0, err
	}
	threshold, err := scalar[uint16](args, ComparerArgThreshold)
	if err != nil {
		return nil, 0, 0, err
	}
	flags, err := memSlice[byte](args, ComparerArgFlags)
	if err != nil {
		return nil, 0, 0, err
	}
	mmCount, err := memSlice[uint16](args, ComparerArgMMCount)
	if err != nil {
		return nil, 0, 0, err
	}
	direction, err := memSlice[byte](args, ComparerArgDirection)
	if err != nil {
		return nil, 0, 0, err
	}
	arena, err := arenaSlots("comparer", args, ComparerArgPageSlots)
	if err != nil {
		return nil, 0, 0, err
	}
	lCompN, err = localSlots(args, ComparerArgLocalComp, 1)
	if err != nil {
		return nil, 0, 0, err
	}
	lIdxN, err = localSlots(args, ComparerArgLocalCompIndex, 4)
	if err != nil {
		return nil, 0, 0, err
	}
	view, err := scalar[ChunkView](args, ComparerArgView)
	if err != nil {
		return nil, 0, 0, err
	}
	ca = &ComparerArgs{
		Chr:       chr,
		ChunkView: view,
		Loci:      loci,
		Flags:     flags,
		LociCount: lociCount,
		Guide: &PatternPair{
			Codes:      comp,
			Index:      compIndex,
			PatternLen: int(plen),
		},
		Threshold: threshold,
		MMLoci:    mmLoci,
		MMCount:   mmCount,
		Direction: direction,
		Arena:     arena,
	}
	return ca, lCompN, lIdxN, nil
}

func buildComparerPhases(v ComparerVariant) func(args []any) (gpu.PhaseKernel, error) {
	return func(args []any) (gpu.PhaseKernel, error) {
		ca, lCompN, lIdxN, err := comparerSlots(args)
		if err != nil {
			return nil, err
		}
		k, err := NewComparer(v, ca)
		if err != nil {
			return nil, err
		}
		return func() []gpu.Phase {
			return k.Phases(make([]byte, lCompN), make([]int32, lIdxN))
		}, nil
	}
}

// gatherSlots parses the gather's bound argument slots, returning the
// kernel arguments and the element count of the local offsets array.
func gatherSlots(args []any) (ga *GatherArgs, lSumsN int, err error) {
	n, err := scalar[uint32](args, GatherArgLociCount)
	if err != nil {
		return nil, 0, err
	}
	pageSlots, err := scalar[int32](args, GatherArgPageSlots)
	if err != nil {
		return nil, 0, err
	}
	pages, err := scalar[int32](args, GatherArgPages)
	if err != nil {
		return nil, 0, err
	}
	ga = &GatherArgs{N: int(n), PageSlots: int(pageSlots), Pages: int(pages)}
	for _, s := range []struct {
		dst *[]uint32
		i   int
	}{{&ga.Count, GatherArgGroupCount}, {&ga.PageOf, GatherArgGroupPage}, {&ga.Loci, GatherArgLoci}, {&ga.OutLoci, GatherArgOutLoci}} {
		if *s.dst, err = memSlice[uint32](args, s.i); err != nil {
			return nil, 0, err
		}
	}
	if ga.Flags, err = memSlice[byte](args, GatherArgFlags); err != nil {
		return nil, 0, err
	}
	if ga.OutFlags, err = memSlice[byte](args, GatherArgOutFlags); err != nil {
		return nil, 0, err
	}
	if lSumsN, err = localSlots(args, GatherArgLocalSums, 4); err != nil {
		return nil, 0, err
	}
	return ga, lSumsN, nil
}

func buildGatherPhases(args []any) (gpu.PhaseKernel, error) {
	ga, lSumsN, err := gatherSlots(args)
	if err != nil {
		return nil, err
	}
	k, err := NewGather(ga)
	if err != nil {
		return nil, err
	}
	return func() []gpu.Phase { return k.Phases(make([]uint32, lSumsN)) }, nil
}
