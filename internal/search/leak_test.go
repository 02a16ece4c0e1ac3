package search

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// faultyOps is a host-ops implementation that fails its failAt-th call. It
// forwards everything else to a real veneer so the chunk gets as far as that
// call, and audits the handle discipline on the way: every handle the driver
// frees must be one it was given and still holds.
type faultyOps struct {
	hostOps
	t      *testing.T
	failAt int
	calls  int
	live   map[devBuf]struct{}
}

func (f *faultyOps) step(op string) error {
	f.calls++
	if f.calls != f.failAt {
		return nil
	}
	return fault.Errorf(fault.SiteCLTransfer, fault.Transient, "injected failure of call %d (%s)", f.calls, op)
}

func (f *faultyOps) alloc(kind bufKind, n int, host any) (devBuf, error) {
	if err := f.step("alloc"); err != nil {
		return nil, err
	}
	b, err := f.hostOps.alloc(kind, n, host)
	if err == nil {
		f.live[b] = struct{}{}
	}
	return b, err
}

// free fails the way a release on a lost context does: the error is
// reported, the handle is gone regardless.
func (f *faultyOps) free(b devBuf) error {
	if _, ok := f.live[b]; !ok {
		f.t.Errorf("free of a handle that is not live (double free?): %v", b)
		return nil
	}
	delete(f.live, b)
	err := f.hostOps.free(b)
	if serr := f.step("free"); serr != nil {
		return serr
	}
	return err
}

func (f *faultyOps) launchFinder(ctx context.Context, l *finderLaunch) (*gpu.Stats, error) {
	if err := f.step("launchFinder"); err != nil {
		return nil, err
	}
	return f.hostOps.launchFinder(ctx, l)
}

func (f *faultyOps) launchComparer(ctx context.Context, l *comparerLaunch) (*gpu.Stats, error) {
	if err := f.step("launchComparer"); err != nil {
		return nil, err
	}
	return f.hostOps.launchComparer(ctx, l)
}

func (f *faultyOps) copyRange(src, dst devBuf, srcOff, dstOff, n int) error {
	if err := f.step("copyRange"); err != nil {
		return err
	}
	return f.hostOps.copyRange(src, dst, srcOff, dstOff, n)
}

func (f *faultyOps) readRange(src devBuf, off, n int, dst any) error {
	if err := f.step("readRange"); err != nil {
		return err
	}
	return f.hostOps.readRange(src, off, n, dst)
}

// TestHostOpsFailureSweep fails every host-ops call of one chunk's
// Stage → Find → Compare → Drain in turn, through both veneers, and requires
// of each failure: a typed error out of the phase that hit it, no handle
// freed twice, and — after Release and Close, the calls the resilient
// executor makes on a failed attempt — nothing live in the driver, in the
// veneer or on the device.
func TestHostOpsFailureSweep(t *testing.T) {
	asm := denseAssembly(300, 200)
	req := denseRequest()
	req.ChunkBytes = 0
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	data := asm.Sequences[0].Data
	plen := plan.Pattern.PatternLen
	ch := &genome.Chunk{SeqName: "chr1", Data: data, Body: len(data) - plen + 1, Overlap: plen - 1}
	ctx := context.Background()

	// attempt runs the chunk with the failAt-th call failing (0: none) and
	// returns the number of calls made and the phase error.
	attempt := func(t *testing.T, core *simCore, failAt int) (int, error) {
		f := &faultyOps{t: t, failAt: failAt, live: make(map[devBuf]struct{})}
		open := core.open
		core.open = func(dev *gpu.Device, v kernels.ComparerVariant, onAsync func()) (hostOps, error) {
			inner, err := open(dev, v, onAsync)
			f.hostOps = inner
			return f, err
		}
		defer func() { core.open = open }()

		core.profile = newProfile()
		b, err := newSimBackend(core, plan)
		if err == nil {
			err = func() error {
				st, err := b.Stage(ctx, ch)
				if err != nil {
					return err
				}
				defer b.Release(st)
				n, err := b.Find(ctx, st)
				if err != nil {
					return err
				}
				if n == 0 {
					return errors.New("chunk has no candidates; the sweep would skip Compare")
				}
				for qi := range plan.Guides {
					if err := b.Compare(ctx, st, qi); err != nil {
						return err
					}
				}
				hits, err := b.Drain(ctx, st, &pipeline.SiteRenderer{})
				if err == nil && len(hits) == 0 {
					return errors.New("chunk has no hits; the sweep would skip the entry readback")
				}
				return err
			}()
			if cerr := b.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close: %w", cerr)
			}
			if n := len(b.live); n != 0 {
				t.Errorf("driver holds %d live handles after Close", n)
			}
		}
		if n := len(f.live); n != 0 {
			t.Errorf("veneer holds %d live handles after Close", n)
		}
		if n := core.Device.AllocatedBytes(); n != 0 {
			t.Errorf("device holds %d bytes after Close", n)
		}
		return f.calls, err
	}

	cores := []*simCore{
		(&SimCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base}).core(),
		(&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}).core(),
	}
	for _, core := range cores {
		t.Run(core.name, func(t *testing.T) {
			calls, err := attempt(t, core, 0)
			if err != nil {
				t.Fatalf("clean attempt: %v", err)
			}
			if calls < 20 {
				t.Fatalf("clean attempt made only %d host-ops calls", calls)
			}
			for k := 1; k <= calls; k++ {
				_, err := attempt(t, core, k)
				var fe *fault.Error
				if !errors.As(err, &fe) || fe.Site != fault.SiteCLTransfer {
					t.Errorf("call %d of %d failed, attempt returned %v; want the injected fault", k, calls, err)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}
