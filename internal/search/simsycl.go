package search

import (
	"context"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/kernels"
	"casoffinder/internal/sycl"
)

// SimSYCL runs the search as the migrated SYCL application (§III): a queue
// from a device selector, buffers with accessors, command groups with local
// accessors and parallel_for, and implicit buffer write-back. The kernels
// are the same bodies the OpenCL engine runs; the work-group size is 256
// for both kernels, as in the paper's SYCL program. Its fields are
// simConfig's.
type SimSYCL simConfig

// DefaultSYCLWorkGroup is the local work size of the SYCL application:
// "the local work size (work-group size) is 256 for launching both SYCL
// kernels" (§IV.A).
const DefaultSYCLWorkGroup = 256

// Name implements Engine.
func (e *SimSYCL) Name() string { return "sycl-sim" }

func (e *SimSYCL) core() *simCore {
	return &simCore{simConfig: (*simConfig)(e), name: e.Name(), open: openSYCL, defaultWG: DefaultSYCLWorkGroup}
}

// LastProfile implements Profiler.
func (e *SimSYCL) LastProfile() *Profile { return e.profile }

// Run implements Engine.
func (e *SimSYCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

// Stream implements Engine by running the SYCL command groups behind the
// shared pipeline.
func (e *SimSYCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	return e.core().stream(ctx, asm, req, emit)
}

// syclOps is the SYCL spelling of the host-ops seam: one queue (steps 1-2
// of the SYCL column), buffers whose storage the runtime owns, and command
// groups that bind them through accessors.
type syclOps struct {
	queue   *sycl.Queue
	variant kernels.ComparerVariant
}

// openSYCL builds the queue from a device selector. The async handler is
// how the migrated program observes asynchronous exceptions (§III): every
// delivery is reported through onAsync; the errors themselves still surface
// on the events the launches wait on.
func openSYCL(dev *gpu.Device, v kernels.ComparerVariant, onAsync func()) (hostOps, error) {
	q, err := sycl.NewQueue(sycl.GPUSelector{}, dev)
	if err != nil {
		return nil, err
	}
	q.SetAsyncHandler(func(*sycl.AsyncError) { onAsync() })
	return &syclOps{queue: q, variant: v}, nil
}

// close has nothing to release: the queue owns no device objects.
func (o *syclOps) close() error { return nil }

// syclBuffer is the element-type-erased face of syclMem[T].
type syclBuffer interface {
	free() error
	read(off, n int, dst any) error
}

// syclMem gives sycl.Buffer[T] the untyped methods the seam calls.
type syclMem[T any] struct{ *sycl.Buffer[T] }

// free ends the buffer's lifetime — the scope exit of Table II.
func (b syclMem[T]) free() error { return b.Destroy() }

// read is a ranged host accessor.
func (b syclMem[T]) read(off, n int, dst any) error {
	host, err := hostSlice[T](dst)
	if err != nil {
		return err
	}
	return b.SnapshotRange(off, n, host)
}

func syclCreate[T any](kind bufKind, n int, host []T) (devBuf, error) {
	var buf *sycl.Buffer[T]
	var err error
	switch {
	case kind == bufConst:
		buf, err = sycl.NewConstantBuffer(host)
	case host != nil:
		buf, err = sycl.NewBufferFrom(host)
	default:
		buf, err = sycl.NewBuffer[T](n)
	}
	if err != nil {
		return nil, err
	}
	return syclMem[T]{buf}, nil
}

func (o *syclOps) alloc(kind bufKind, n int, host any) (devBuf, error) {
	switch h := host.(type) {
	case []byte:
		return syclCreate(kind, n, h)
	case []int32:
		return syclCreate(kind, n, h)
	case []uint16:
		return syclCreate(kind, n, h)
	case []uint32:
		return syclCreate(kind, n, h)
	}
	return nil, fmt.Errorf("search: sycl-sim: no buffer of %T", host)
}

func (o *syclOps) free(b devBuf) error { return b.(syclBuffer).free() }

func (o *syclOps) readRange(src devBuf, off, n int, dst any) error {
	return src.(syclBuffer).read(off, n, dst)
}

// syclAccess binds a buffer into a command group and returns the accessor's
// window, folding the error so a command group can bind its arguments in
// one run and check once.
func syclAccess[T any](h *sycl.Handler, b devBuf, mode sycl.AccessMode, err *error) []T {
	if *err != nil {
		return nil
	}
	acc, aerr := sycl.Access(h, b.(syclMem[T]).Buffer, mode)
	if aerr != nil {
		*err = aerr
		return nil
	}
	return acc.Slice()
}

// syclLocal declares n elements of work-group-local storage, folding the
// error like syclAccess.
func syclLocal[T any](h *sycl.Handler, n int, err *error) *sycl.LocalAccessor[T] {
	if *err != nil {
		return nil
	}
	acc, lerr := sycl.NewLocalAccessor[T](h, n)
	if lerr != nil {
		*err = lerr
	}
	return acc
}

// syclAccessArena binds the arena's claim state into a command group with
// one accessor of the given mode, returning the kernel-visible alloc.Device
// over its window, folding the error like syclAccess.
func syclAccessArena(h *sycl.Handler, a *simArena, mode sycl.AccessMode, err *error) *alloc.Device {
	state := syclAccess[uint32](h, a.state, mode, err)
	if *err != nil {
		return nil
	}
	d, berr := alloc.Bind(a.layout.PageSlots, a.layout.Pages, state)
	*err = berr
	return d
}

// syclWait waits on a kernel command group's event and returns its
// statistics.
func syclWait(ev *sycl.Event) (*gpu.Stats, error) {
	if err := ev.Wait(); err != nil {
		return nil, err
	}
	return ev.Stats(), nil
}

// launchFinder submits the finder command group (accessors, local
// accessors, two phases) and waits on its event.
func (o *syclOps) launchFinder(ctx context.Context, l *finderLaunch) (*gpu.Stats, error) {
	return syclWait(o.queue.Submit(ctx, func(h *sycl.Handler) error {
		var err error
		fa := &kernels.FinderArgs{
			Chr:       syclAccess[byte](h, l.chr, sycl.Read, &err),
			ChunkView: l.view,
			Pattern: &kernels.PatternPair{
				Codes:      syclAccess[byte](h, l.pat, sycl.Read, &err),
				Index:      syclAccess[int32](h, l.patIdx, sycl.Read, &err),
				PatternLen: l.plen,
			},
			Sites: l.sites,
			Loci:  syclAccess[uint32](h, l.loci, sycl.Write, &err),
			Flags: syclAccess[byte](h, l.flags, sycl.Write, &err),
			Arena: syclAccessArena(h, l.arena, sycl.ReadWrite, &err),
		}
		lPat := syclLocal[byte](h, 2*l.plen, &err)
		lPatIdx := syclLocal[int32](h, 2*l.plen, &err)
		if err != nil {
			return err
		}
		k, err := kernels.NewFinder(fa)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("finder", l.gws, l.wg, func(m *sycl.LocalMem) []gpu.Phase {
			return k.Phases(lPat.Slice(m), lPatIdx.Slice(m))
		})
	}))
}

// launchComparer submits one guide's comparer command group and waits on
// its event.
func (o *syclOps) launchComparer(ctx context.Context, l *comparerLaunch) (*gpu.Stats, error) {
	return syclWait(o.queue.Submit(ctx, func(h *sycl.Handler) error {
		var err error
		ca := &kernels.ComparerArgs{
			Chr:       syclAccess[byte](h, l.chr, sycl.Read, &err),
			ChunkView: l.view,
			Loci:      syclAccess[uint32](h, l.loci, sycl.Read, &err),
			Flags:     syclAccess[byte](h, l.flags, sycl.Read, &err),
			LociCount: uint32(l.n),
			Guide: &kernels.PatternPair{
				Codes:      syclAccess[byte](h, l.comp, sycl.Read, &err),
				Index:      syclAccess[int32](h, l.compIdx, sycl.Read, &err),
				PatternLen: l.plen,
			},
			Threshold: l.threshold,
			MMLoci:    syclAccess[uint32](h, l.mmLoci, sycl.Write, &err),
			MMCount:   syclAccess[uint16](h, l.mmCnt, sycl.Write, &err),
			Direction: syclAccess[byte](h, l.dir, sycl.Write, &err),
			Arena:     syclAccessArena(h, l.arena, sycl.ReadWrite, &err),
		}
		lComp := syclLocal[byte](h, 2*l.plen, &err)
		lCompIdx := syclLocal[int32](h, 2*l.plen, &err)
		if err != nil {
			return err
		}
		k, err := kernels.NewComparer(o.variant, ca)
		if err != nil {
			return err
		}
		return h.ParallelForPhases(kernels.ComparerKernelName(o.variant), l.gws, l.wg, func(m *sycl.LocalMem) []gpu.Phase {
			return k.Phases(lComp.Slice(m), lCompIdx.Slice(m))
		})
	}))
}

// gather submits the gather command group — one work-group over the finder
// arena's tables — and waits on its event.
func (o *syclOps) gather(ctx context.Context, l *gatherLaunch) error {
	return o.queue.Submit(ctx, func(h *sycl.Handler) error {
		var err error
		ga := &kernels.GatherArgs{
			Arena:    syclAccessArena(h, l.arena, sycl.Read, &err),
			Loci:     syclAccess[uint32](h, l.loci, sycl.Read, &err),
			Flags:    syclAccess[byte](h, l.flags, sycl.Read, &err),
			N:        l.n,
			OutLoci:  syclAccess[uint32](h, l.outLoci, sycl.Write, &err),
			OutFlags: syclAccess[byte](h, l.outFlags, sycl.Write, &err),
		}
		lSums := syclLocal[uint32](h, l.wg, &err)
		if err != nil {
			return err
		}
		k, err := kernels.NewGather(ga)
		if err != nil {
			return err
		}
		return h.ParallelForPhases(kernels.GatherKernelName, l.wg, l.wg, func(m *sycl.LocalMem) []gpu.Phase {
			return k.Phases(lSums.Slice(m))
		})
	}).Wait()
}
