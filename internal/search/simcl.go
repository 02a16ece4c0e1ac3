package search

import (
	"context"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/kernels"
	"casoffinder/internal/opencl"
)

// SimCL runs the search as the paper's original OpenCL application: the
// full 13-step host lifecycle over the device simulator, with the
// work-group size left to the runtime (the OpenCL-side condition of the
// Table VIII comparison) unless WorkGroupSize forces one. Its fields are
// simConfig's.
type SimCL simConfig

// Name implements Engine.
func (e *SimCL) Name() string { return "opencl-sim" }

func (e *SimCL) core() *simCore {
	return &simCore{simConfig: (*simConfig)(e), name: e.Name(), open: openCL}
}

// LastProfile implements Profiler.
func (e *SimCL) LastProfile() *Profile { return e.profile }

// Run implements Engine.
func (e *SimCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

// Stream implements Engine by driving the two kernels through the OpenCL
// host API behind the shared pipeline.
func (e *SimCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	return e.core().stream(ctx, asm, req, emit)
}

// clOps is the OpenCL spelling of the host-ops seam: the run-wide objects
// of steps 1-8 of the host lifecycle (platform, device, context, queue,
// program, build, kernels), with every buffer an explicitly released memory
// object and every kernel argument set by index.
type clOps struct {
	ctx          *opencl.Context
	queue        *opencl.CommandQueue
	prog         *opencl.Program
	finder       *opencl.Kernel
	comparer     *opencl.Kernel
	gatherKernel *opencl.Kernel
}

// openCL performs steps 1-8 of the host lifecycle. OpenCL reports every
// failure as a call's return code, so the async callback is never used. On
// any failure the partially built state is torn down via close.
func openCL(dev *gpu.Device, v kernels.ComparerVariant, _ func()) (_ hostOps, err error) {
	o := &clOps{}
	defer func() {
		if err != nil {
			o.close()
		}
	}()

	// Steps 1-4: platform, device, context, queue.
	platform := opencl.NewPlatform("ROCm", dev)
	devs, err := platform.GetDevices(opencl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	if o.ctx, err = opencl.CreateContext(devs...); err != nil {
		return nil, err
	}
	if o.queue, err = o.ctx.CreateCommandQueue(devs[0]); err != nil {
		return nil, err
	}

	// Steps 6-8: program and kernels.
	if o.prog, err = o.ctx.CreateProgramWithSource(kernels.CLSource()); err != nil {
		return nil, err
	}
	if err = o.prog.Build("-O3"); err != nil {
		return nil, err
	}
	if o.finder, err = o.prog.CreateKernel("finder"); err != nil {
		return nil, err
	}
	if o.comparer, err = o.prog.CreateKernel(kernels.ComparerKernelName(v)); err != nil {
		return nil, err
	}
	if o.gatherKernel, err = o.prog.CreateKernel(kernels.GatherKernelName); err != nil {
		return nil, err
	}
	return o, nil
}

// close releases the kernels, program, queue and context — whichever of them
// a failed open got as far as creating — folding the first error. It runs
// once per clOps.
func (o *clOps) close() (err error) {
	if o.finder != nil {
		closeErr(o.finder.Release(), &err)
	}
	if o.comparer != nil {
		closeErr(o.comparer.Release(), &err)
	}
	if o.gatherKernel != nil {
		closeErr(o.gatherKernel.Release(), &err)
	}
	if o.prog != nil {
		closeErr(o.prog.Release(), &err)
	}
	if o.queue != nil {
		closeErr(o.queue.Release(), &err)
	}
	if o.ctx != nil {
		closeErr(o.ctx.Release(), &err)
	}
	return err
}

// clBuffer is the element-type-erased face of clMem[T].
type clBuffer interface {
	mem() *opencl.Mem
	read(q *opencl.CommandQueue, off, n int, dst any) error
}

// clMem remembers a memory object's element type, which the typed transfer
// calls need and *opencl.Mem itself does not carry.
type clMem[T any] struct{ m *opencl.Mem }

func (b clMem[T]) mem() *opencl.Mem { return b.m }

func (b clMem[T]) read(q *opencl.CommandQueue, off, n int, dst any) error {
	host, err := hostSlice[T](dst)
	if err != nil {
		return err
	}
	_, err = opencl.EnqueueReadBuffer(q, b.m, true, off, n, host)
	return err
}

// clFlags spells each buffer kind as clCreateBuffer memory flags.
var clFlags = [...]opencl.MemFlags{
	bufIn:    opencl.MemReadOnly,
	bufConst: opencl.MemReadOnly | opencl.MemUseConstant,
	bufOut:   opencl.MemWriteOnly,
	bufState: opencl.MemReadWrite,
}

func clCreate[T any](o *clOps, kind bufKind, n int, host []T) (devBuf, error) {
	flags := clFlags[kind]
	if host != nil {
		flags |= opencl.MemCopyHostPtr
	}
	m, err := opencl.CreateBuffer(o.ctx, flags, n, host)
	if err != nil {
		return nil, err
	}
	return clMem[T]{m}, nil
}

func (o *clOps) alloc(kind bufKind, n int, host any) (devBuf, error) {
	switch h := host.(type) {
	case []byte:
		return clCreate(o, kind, n, h)
	case []int32:
		return clCreate(o, kind, n, h)
	case []uint16:
		return clCreate(o, kind, n, h)
	case []uint32:
		return clCreate(o, kind, n, h)
	}
	return nil, fmt.Errorf("search: opencl-sim: no buffer of %T", host)
}

func (o *clOps) free(b devBuf) error { return b.(clBuffer).mem().Release() }

func (o *clOps) readRange(src devBuf, off, n int, dst any) error {
	return src.(clBuffer).read(o.queue, off, n, dst)
}

// clLocal is a __local argument's size in bytes in a launch's argument list.
type clLocal int

// launch is steps 9-11 for one kernel: set every argument by index —
// buffers as their memory objects, __local arrays by size — enqueue the
// ND-range and wait on its event.
func (o *clOps) launch(ctx context.Context, k *opencl.Kernel, args []any, gws, wg int) (*gpu.Stats, error) {
	for i, a := range args {
		var err error
		switch a := a.(type) {
		case clBuffer:
			err = k.SetArg(i, a.mem())
		case clLocal:
			err = k.SetArgLocal(i, int(a))
		default:
			err = k.SetArg(i, a)
		}
		if err != nil {
			return nil, err
		}
	}
	ev, err := o.queue.EnqueueNDRangeKernel(ctx, k, gws, wg)
	if err != nil {
		return nil, err
	}
	if err := ev.Wait(); err != nil {
		return nil, err
	}
	return ev.Stats(), nil
}

func (o *clOps) launchFinder(ctx context.Context, l *finderLaunch) (*gpu.Stats, error) {
	a := l.arena
	return o.launch(ctx, o.finder, []any{
		l.chr, l.pat, l.patIdx,
		int32(l.plen), uint32(l.sites),
		l.loci, l.flags,
		int32(a.layout.PageSlots), int32(a.layout.Pages), a.state,
		clLocal(2 * l.plen), clLocal(4 * 2 * l.plen),
		l.view,
	}, l.gws, l.wg)
}

func (o *clOps) launchComparer(ctx context.Context, l *comparerLaunch) (*gpu.Stats, error) {
	a := l.arena
	return o.launch(ctx, o.comparer, []any{
		uint32(l.n), l.chr, l.loci, l.mmLoci,
		l.comp, l.compIdx,
		int32(l.plen), l.threshold,
		l.flags, l.mmCnt, l.dir,
		int32(a.layout.PageSlots), int32(a.layout.Pages), a.state,
		clLocal(2 * l.plen), clLocal(4 * 2 * l.plen),
		l.view,
	}, l.gws, l.wg)
}

// gather launches the gather kernel as one work-group of wg items.
func (o *clOps) gather(ctx context.Context, l *gatherLaunch) error {
	a := l.arena
	_, err := o.launch(ctx, o.gatherKernel, []any{
		uint32(l.n), int32(a.layout.PageSlots), int32(a.layout.Pages), a.state,
		l.loci, l.flags,
		l.outLoci, l.outFlags,
		clLocal(4 * l.wg),
	}, l.wg, l.wg)
	return err
}
