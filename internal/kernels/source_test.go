package kernels

import (
	"sort"
	"strings"
	"testing"

	"casoffinder/internal/baseline"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/opencl"
)

// clEnv builds the OpenCL object stack over one simulated device.
func clEnv(t testing.TB, dev *gpu.Device) (*opencl.Context, *opencl.CommandQueue, *opencl.Program) {
	t.Helper()
	p := opencl.NewPlatform("ROCm", dev)
	devs, err := p.GetDevices(opencl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := opencl.CreateContext(devs...)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateCommandQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(CLSource())
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build("-O3"); err != nil {
		t.Fatal(err)
	}
	return ctx, q, prog
}

// TestCLSourceEndToEnd runs the finder and comparer through the full OpenCL
// host path (buffers, SetArg, enqueue, read back) and checks the hits
// against the reference.
func TestCLSourceEndToEnd(t *testing.T) {
	ctx, q, prog := clEnv(t, gpu.New(device.MI60(), gpu.WithWorkers(4)))
	seq := genome.Upper([]byte("ACCGATTACAGGTTTGATTACAAGCCGATTACAGGACGTCCTGTAATCGG"))
	const patternStr, guideStr = "NNNNNNNGG", "GATTACANN"
	const maxMM = 1

	pat, err := NewPatternPair([]byte(patternStr))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := NewPatternPair([]byte(guideStr))
	if err != nil {
		t.Fatal(err)
	}
	sites := len(seq) - pat.PatternLen + 1
	v, err := genome.NewWordView(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := ChunkView{View: v}

	chrBuf, err := opencl.CreateBuffer(ctx, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(seq), seq)
	if err != nil {
		t.Fatal(err)
	}
	patBuf, err := opencl.CreateBuffer(ctx, opencl.MemReadOnly|opencl.MemUseConstant|opencl.MemCopyHostPtr, len(pat.Codes), pat.Codes)
	if err != nil {
		t.Fatal(err)
	}
	patIdxBuf, err := opencl.CreateBuffer(ctx, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(pat.Index), pat.Index)
	if err != nil {
		t.Fatal(err)
	}
	const wg = 64
	gws := (sites + wg - 1) / wg * wg
	fLayout := alloc.WorstCase(gws/wg, wg)
	lociBuf, err := opencl.CreateBuffer[uint32](ctx, opencl.MemReadWrite, fLayout.Slots(), nil)
	if err != nil {
		t.Fatal(err)
	}
	flagsBuf, err := opencl.CreateBuffer[byte](ctx, opencl.MemReadWrite, fLayout.Slots(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each launch gets a fresh arena state stack: host data enters an
	// OpenCL buffer only at creation, so the zeroed cursor, counters and
	// overflow and the unset pages are written there.
	type arenaBufs struct{ cursor, count, page, ovf *opencl.Mem }
	newArena := func(groups int) arenaBufs {
		t.Helper()
		var a arenaBufs
		var err error
		for _, b := range []struct {
			dst  **opencl.Mem
			host []uint32
		}{
			{&a.cursor, []uint32{0}},
			{&a.count, make([]uint32, groups)},
			{&a.page, alloc.UnsetPages(groups)},
			{&a.ovf, []uint32{0}},
		} {
			if *b.dst, err = opencl.CreateBuffer(ctx, opencl.MemReadWrite|opencl.MemCopyHostPtr, len(b.host), b.host); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	readArena := func(a arenaBufs, groups, pageSlots, pages int) *alloc.Geometry {
		t.Helper()
		ovf := make([]uint32, 1)
		if _, err := opencl.EnqueueReadBuffer(q, a.ovf, true, 0, 1, ovf); err != nil {
			t.Fatal(err)
		}
		if ovf[0] != 0 {
			t.Fatalf("worst-case arena overflowed %d entries", ovf[0])
		}
		cursor := make([]uint32, 1)
		if _, err := opencl.EnqueueReadBuffer(q, a.cursor, true, 0, 1, cursor); err != nil {
			t.Fatal(err)
		}
		count := make([]uint32, groups)
		if _, err := opencl.EnqueueReadBuffer(q, a.count, true, 0, groups, count); err != nil {
			t.Fatal(err)
		}
		pageOf := make([]uint32, groups)
		if _, err := opencl.EnqueueReadBuffer(q, a.page, true, 0, groups, pageOf); err != nil {
			t.Fatal(err)
		}
		geo, err := alloc.Decode(cursor[0], count, pageOf, pageSlots, pages)
		if err != nil {
			t.Fatal(err)
		}
		return geo
	}

	finder, err := prog.CreateKernel("finder")
	if err != nil {
		t.Fatal(err)
	}
	fArena := newArena(fLayout.Groups)
	finderArgs := []any{
		chrBuf, patBuf, patIdxBuf,
		int32(pat.PatternLen), uint32(sites),
		lociBuf, flagsBuf,
		int32(fLayout.PageSlots), int32(fLayout.Pages),
		fArena.cursor, fArena.count, fArena.page, fArena.ovf,
	}
	for i, a := range finderArgs {
		if err := finder.SetArg(i, a); err != nil {
			t.Fatalf("finder arg %d: %v", i, err)
		}
	}
	if err := finder.SetArgLocal(FinderArgLocalPat, 2*pat.PatternLen); err != nil {
		t.Fatal(err)
	}
	if err := finder.SetArgLocal(FinderArgLocalPatIndex, 4*2*pat.PatternLen); err != nil {
		t.Fatal(err)
	}
	if err := finder.SetArg(FinderArgView, view); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(nil, finder, gws, 0); err != nil {
		t.Fatalf("finder enqueue: %v", err)
	}

	fgeo := readArena(fArena, fLayout.Groups, fLayout.PageSlots, fLayout.Pages)
	n := fgeo.Total
	if n == 0 {
		t.Fatal("finder found no candidate sites")
	}
	lociStrided := make([]uint32, fLayout.Slots())
	if _, err := opencl.EnqueueReadBuffer(q, lociBuf, true, 0, len(lociStrided), lociStrided); err != nil {
		t.Fatal(err)
	}
	flagsStrided := make([]byte, fLayout.Slots())
	if _, err := opencl.EnqueueReadBuffer(q, flagsBuf, true, 0, len(flagsStrided), flagsStrided); err != nil {
		t.Fatal(err)
	}
	loci := alloc.Gather(fgeo, lociStrided, []uint32(nil))
	flags := alloc.Gather(fgeo, flagsStrided, []byte(nil))
	cLociBuf, err := opencl.CreateBuffer(ctx, opencl.MemReadOnly|opencl.MemCopyHostPtr, n, loci)
	if err != nil {
		t.Fatal(err)
	}
	cFlagsBuf, err := opencl.CreateBuffer(ctx, opencl.MemReadOnly|opencl.MemCopyHostPtr, n, flags)
	if err != nil {
		t.Fatal(err)
	}

	compBuf, err := opencl.CreateBuffer(ctx, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(gd.Codes), gd.Codes)
	if err != nil {
		t.Fatal(err)
	}
	compIdxBuf, err := opencl.CreateBuffer(ctx, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(gd.Index), gd.Index)
	if err != nil {
		t.Fatal(err)
	}
	cgws := (n + wg - 1) / wg * wg
	cLayout := alloc.WorstCase(cgws/wg, 2*wg)
	mmLociBuf, err := opencl.CreateBuffer[uint32](ctx, opencl.MemWriteOnly, cLayout.Slots(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mmCountBuf, err := opencl.CreateBuffer[uint16](ctx, opencl.MemWriteOnly, cLayout.Slots(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dirBuf, err := opencl.CreateBuffer[byte](ctx, opencl.MemWriteOnly, cLayout.Slots(), nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, variant := range Variants() {
		cArena := newArena(cLayout.Groups)
		comparer, err := prog.CreateKernel(ComparerKernelName(variant))
		if err != nil {
			t.Fatal(err)
		}
		comparerArgs := []any{
			uint32(n), chrBuf, cLociBuf, mmLociBuf,
			compBuf, compIdxBuf,
			int32(gd.PatternLen), uint16(maxMM),
			cFlagsBuf, mmCountBuf, dirBuf,
			int32(cLayout.PageSlots), int32(cLayout.Pages),
			cArena.cursor, cArena.count, cArena.page, cArena.ovf,
		}
		for i, a := range comparerArgs {
			if err := comparer.SetArg(i, a); err != nil {
				t.Fatalf("%s arg %d: %v", variant, i, err)
			}
		}
		if err := comparer.SetArgLocal(ComparerArgLocalComp, 2*gd.PatternLen); err != nil {
			t.Fatal(err)
		}
		if err := comparer.SetArgLocal(ComparerArgLocalCompIndex, 4*2*gd.PatternLen); err != nil {
			t.Fatal(err)
		}
		if err := comparer.SetArg(ComparerArgView, view); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueNDRangeKernel(nil, comparer, cgws, wg); err != nil {
			t.Fatalf("%s enqueue: %v", variant, err)
		}

		cgeo := readArena(cArena, cLayout.Groups, cLayout.PageSlots, cLayout.Pages)
		mmStrided := make([]uint32, cLayout.Slots())
		if _, err := opencl.EnqueueReadBuffer(q, mmLociBuf, true, 0, len(mmStrided), mmStrided); err != nil {
			t.Fatal(err)
		}
		cntStrided := make([]uint16, cLayout.Slots())
		if _, err := opencl.EnqueueReadBuffer(q, mmCountBuf, true, 0, len(cntStrided), cntStrided); err != nil {
			t.Fatal(err)
		}
		dirStrided := make([]byte, cLayout.Slots())
		if _, err := opencl.EnqueueReadBuffer(q, dirBuf, true, 0, len(dirStrided), dirStrided); err != nil {
			t.Fatal(err)
		}
		mmLoci := alloc.Gather(cgeo, mmStrided, []uint32(nil))
		mmCount := alloc.Gather(cgeo, cntStrided, []uint16(nil))
		dirs := alloc.Gather(cgeo, dirStrided, []byte(nil))
		got := make([]baseline.Hit, cgeo.Total)
		for i := range got {
			got[i] = baseline.Hit{Pos: int(mmLoci[i]), Dir: dirs[i], Mismatches: int(mmCount[i])}
		}
		sort.Slice(got, func(i, j int) bool {
			if got[i].Pos != got[j].Pos {
				return got[i].Pos < got[j].Pos
			}
			return got[i].Dir < got[j].Dir
		})
		want, err := baseline.Search(seq, []byte(patternStr), []byte(guideStr), maxMM)
		if err != nil {
			t.Fatal(err)
		}
		if !hitsEqual(got, want) {
			t.Errorf("variant %s via OpenCL: hits = %+v, want %+v", variant, got, want)
		}
		if err := comparer.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCLSourceArgTypeErrors checks the builders reject mistyped arguments.
func TestCLSourceArgTypeErrors(t *testing.T) {
	ctx, q, prog := clEnv(t, gpu.New(device.MI60(), gpu.WithWorkers(4)))
	finder, err := prog.CreateKernel("finder")
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := opencl.CreateBuffer[uint32](ctx, opencl.MemReadOnly, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 wants a byte buffer; give it a uint32 one.
	args := []any{
		wrong, wrong, wrong, int32(3), uint32(1),
		wrong, wrong, int32(4), int32(1),
		wrong, wrong, wrong, wrong,
	}
	for i, a := range args {
		if err := finder.SetArg(i, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := finder.SetArgLocal(FinderArgLocalPat, 6); err != nil {
		t.Fatal(err)
	}
	if err := finder.SetArgLocal(FinderArgLocalPatIndex, 24); err != nil {
		t.Fatal(err)
	}
	if err := finder.SetArg(FinderArgView, ChunkView{}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(nil, finder, 64, 64); err == nil || !strings.Contains(err.Error(), "argument 0") {
		t.Errorf("mistyped kernel arguments: enqueue error %v, want argument 0 rejected", err)
	}

}
