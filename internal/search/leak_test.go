package search

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
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

func (f *faultyOps) gather(ctx context.Context, l *gatherLaunch) error {
	if err := f.step("gather"); err != nil {
		return err
	}
	return f.hostOps.gather(ctx, l)
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
	plan, ch := sweepChunk(t, 300, 200)
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
				if err := b.Find(ctx, st); err != nil {
					return err
				}
				if st.(*simStaged).n == 0 {
					return errors.New("chunk has no candidates; the sweep would skip the comparer")
				}
				if err := b.Compare(ctx, st); err != nil {
					return err
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

	for _, core := range sweepCores() {
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

// countingOps counts the device buffers a host-ops implementation is asked
// for.
type countingOps struct {
	hostOps
	allocs int
}

func (c *countingOps) alloc(kind bufKind, n int, host any) (devBuf, error) {
	c.allocs++
	return c.hostOps.alloc(kind, n, host)
}

// TestBuffersPerLaunch pins the device buffers a chunk allocates, on both
// veneers: 5 per Find (the finder's two page-strided outputs, its claim
// state and the two dense candidate buffers the gather fills) and 6 per
// guide per Compare (the guide's two tables, the comparer's three outputs
// and its claim state). A buffer added to any launch shows here.
func TestBuffersPerLaunch(t *testing.T) {
	_, ch := sweepChunk(t, 300, 200)
	req := denseRequest()
	req.ChunkBytes = 0
	req.Queries = append(req.Queries, Query{Guide: "GGGGGGGGGGNN", MaxMismatches: 0})
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, core := range sweepCores() {
		t.Run(core.name, func(t *testing.T) {
			c := &countingOps{}
			open := core.open
			core.open = func(dev *gpu.Device, v kernels.ComparerVariant, onAsync func()) (hostOps, error) {
				inner, err := open(dev, v, onAsync)
				c.hostOps = inner
				return c, err
			}
			core.profile = newProfile()
			b, err := newSimBackend(core, plan)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			st, err := b.Stage(ctx, ch)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Release(st)
			c.allocs = 0
			if err := b.Find(ctx, st); err != nil {
				t.Fatal(err)
			}
			if st.(*simStaged).n == 0 {
				t.Fatal("chunk has no candidates; Compare would launch nothing")
			}
			find := c.allocs
			c.allocs = 0
			if err := b.Compare(ctx, st); err != nil {
				t.Fatal(err)
			}
			if n := core.profile.OverflowRetries; n != 0 {
				t.Fatalf("%d arena relaunches, each with buffers of its own", n)
			}
			if want := 6 * len(plan.Guides); find != 5 || c.allocs != want {
				t.Errorf("%d buffers per Find, %d per Compare of %d guides; want 5 and %d",
					find, c.allocs, len(plan.Guides), want)
			}
		})
	}
}

// pagedChunk is a chunk of groups·wg finder sites whose every every-th
// group of wg sites holds one forward PAM ("GG" closing the site) in an
// all-A sequence, for a pattern of plen bases.
func pagedChunk(groups, wg, plen, every int) *genome.Chunk {
	data := bytes.Repeat([]byte("A"), groups*wg+plen-1)
	for g := 0; g < groups; g += every {
		copy(data[g*wg+plen-2:], "GG")
	}
	return &genome.Chunk{SeqName: "chr1", Data: data, Body: groups * wg, Overlap: plen - 1}
}

// findAndFree runs one Find over a staged chunk, checks its candidate count
// and frees the dense candidate buffers it made, as Drain would.
func findAndFree(t *testing.T, b *simBackend, st pipeline.Staged, wantN int) {
	s := st.(*simStaged)
	if err := b.Find(context.Background(), st); err != nil || s.n != wantN {
		t.Fatalf("Find = %d, %v; want %d candidates", s.n, err, wantN)
	}
	if err := errors.Join(b.free(s.cLoci), b.free(s.cFlags)); err != nil {
		t.Fatal(err)
	}
	s.cLoci, s.cFlags = nil, nil
}

// TestFindAllocsFlatInPages pins the cost of one Find to the chunk, not to
// what the finder claims: a chunk whose candidates fill four times the
// finder pages of a sparse chunk of the same length must cost the same
// allocations, on both veneers, because the claimed pages are compacted by
// one gather launch rather than by host calls per page.
func TestFindAllocsFlatInPages(t *testing.T) {
	const groups, wg = 64, 64
	req := denseRequest()
	req.ChunkBytes = 0
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	plen := plan.Pattern.PatternLen
	ctx := context.Background()
	for _, core := range sweepCores() {
		t.Run(core.name, func(t *testing.T) {
			core.profile = newProfile()
			b, err := newSimBackend(core, plan)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			allocs := func(every int) float64 {
				st, err := b.Stage(ctx, pagedChunk(groups, wg, plen, every))
				if err != nil {
					t.Fatal(err)
				}
				defer b.Release(st)
				return testing.AllocsPerRun(20, func() { findAndFree(t, b, st, groups/every) })
			}
			sparse, dense := allocs(8), allocs(2)
			t.Logf("allocations per Find: %.0f over %d claimed pages, %.0f over %d", sparse, groups/8, dense, groups/2)
			// A few allocations of slack absorb the runtime's own (goroutine
			// descriptors the SYCL queue's completions may need); a cost per
			// page would be at least one per each of the 24 extra pages.
			if dense > sparse+4 {
				t.Errorf("Find over %d claimed pages made %.0f allocations, over %d pages %.0f: the cost grows with the pages",
					groups/2, dense, groups/8, sparse)
			}
		})
	}
}

// TestFindBytesBelowOutputs pins the device pool's gain on both veneers:
// once a backend has run a Find, the next ones take their buffers' storage
// from the device's pool, so a Find over the TestFindAllocsFlatInPages
// chunk allocates fewer bytes than its page-strided outputs alone would
// take from the heap.
func TestFindBytesBelowOutputs(t *testing.T) {
	const groups, wg, runs = 64, 64, 20
	req := denseRequest()
	req.ChunkBytes = 0
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	ch := pagedChunk(groups, wg, plan.Pattern.PatternLen, 2)
	outputs := uint64(finderEntryBytes * ch.Body)
	for _, core := range sweepCores() {
		t.Run(core.name, func(t *testing.T) {
			core.profile = newProfile()
			b, err := newSimBackend(core, plan)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			st, err := b.Stage(context.Background(), ch)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Release(st)
			findAndFree(t, b, st, groups/2) // warms the pool
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				findAndFree(t, b, st, groups/2)
			}
			runtime.ReadMemStats(&after)
			perFind := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d bytes allocated per Find; its page-strided outputs are %d bytes", perFind, outputs)
			if perFind >= outputs {
				t.Errorf("a warmed Find allocates %d bytes, not below its %d bytes of outputs: buffer storage is not reused", perFind, outputs)
			}
		})
	}
}

// TestComparerWindowPastChunkTyped drives a comparer launch whose candidate
// buffer holds a locus past the staged chunk through both veneers: the
// launch must fail with kernels.ErrWindowPastChunk naming the locus, and
// after Release and Close nothing may be live in the driver or on the
// device.
func TestComparerWindowPastChunkTyped(t *testing.T) {
	plan, ch := sweepChunk(t, 300, 200)
	ctx := context.Background()
	for _, core := range sweepCores() {
		t.Run(core.name, func(t *testing.T) {
			core.profile = newProfile()
			b, err := newSimBackend(core, plan)
			if err != nil {
				t.Fatal(err)
			}
			st, err := b.Stage(ctx, ch)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Find(ctx, st); err != nil {
				t.Fatal(err)
			}
			s := st.(*simStaged)
			if s.n == 0 {
				t.Fatal("chunk has no candidates")
			}
			// Swap the compacted loci for a copy whose last window ends one
			// base past the chunk.
			loci := make([]uint32, s.n)
			bad := len(ch.Data) - plan.Guides[0].PatternLen + 1
			loci[s.n-1] = uint32(bad)
			if err := b.free(s.cLoci); err != nil {
				t.Fatal(err)
			}
			if s.cLoci, err = b.alloc(bufState, s.n, loci); err != nil {
				t.Fatal(err)
			}
			err = b.Compare(ctx, st)
			if !errors.Is(err, kernels.ErrWindowPastChunk) || !strings.Contains(err.Error(), fmt.Sprintf("locus %d ", bad)) {
				t.Errorf("Compare = %v, want ErrWindowPastChunk naming locus %d", err, bad)
			}
			b.Release(st)
			if err := b.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if n := len(b.live); n != 0 {
				t.Errorf("driver holds %d live handles after Close", n)
			}
			if n := core.Device.AllocatedBytes(); n != 0 {
				t.Errorf("device holds %d bytes after Close", n)
			}
		})
	}
}

// sweepChunk is the one-chunk plan the host-ops fakes drive: a GGA run
// and an all-G run (denseAssembly), so the chunk has candidates and hits.
func sweepChunk(t *testing.T, sparse, dense int) (*pipeline.Plan, *genome.Chunk) {
	t.Helper()
	asm := denseAssembly(sparse, dense)
	req := denseRequest()
	req.ChunkBytes = 0
	plan, err := pipeline.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	data := asm.Sequences[0].Data
	plen := plan.Pattern.PatternLen
	return plan, &genome.Chunk{SeqName: "chr1", Data: data, Body: len(data) - plen + 1, Overlap: plen - 1}
}

// sweepCores returns one fresh engine core per veneer.
func sweepCores() []*simCore {
	return []*simCore{
		(&SimCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base}).core(),
		(&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}).core(),
	}
}

// overflowOps is a host-ops implementation whose arena readback lies about
// one kernel: reads of that kernel's claim state see its overflow counter
// non-zero and its emission counters as the first emit groups emitting one
// entry each, emit growing by grow after every read (a negative emit fails
// the read with errCounterRead). It records the layout of each of that
// kernel's launches.
type overflowOps struct {
	hostOps
	comparer   bool
	emit, grow int
	arena      *simArena
	layouts    []alloc.Layout
}

func (o *overflowOps) watch(comparer bool, a *simArena) {
	if comparer == o.comparer {
		o.arena = a
		o.layouts = append(o.layouts, a.layout)
	}
}

func (o *overflowOps) launchFinder(ctx context.Context, l *finderLaunch) (*gpu.Stats, error) {
	o.watch(false, l.arena)
	return o.hostOps.launchFinder(ctx, l)
}

func (o *overflowOps) launchComparer(ctx context.Context, l *comparerLaunch) (*gpu.Stats, error) {
	o.watch(true, l.arena)
	return o.hostOps.launchComparer(ctx, l)
}

func (o *overflowOps) readRange(src devBuf, off, n int, dst any) error {
	if err := o.hostOps.readRange(src, off, n, dst); err != nil {
		return err
	}
	if o.arena == nil || src != o.arena.state {
		return nil
	}
	switch l := o.arena.layout; (alloc.Words{Off: off, N: n}) {
	case l.OverflowWords():
		dst.([]uint32)[0] = 1
	case l.CountWords():
		if o.emit < 0 {
			return errCounterRead
		}
		for i := range dst.([]uint32) {
			dst.([]uint32)[i] = 0
			if i < o.emit {
				dst.([]uint32)[i] = 1
			}
		}
		o.emit += o.grow
	}
	return nil
}

var errCounterRead = errors.New("injected emission-counter read failure")

// TestArenaOverflowBounded feeds the arena loop overflows its counters
// cannot explain, through both veneers: a finder overflow at the worst case,
// a comparer overflow whose counters are all zero, and a comparer whose
// counters call for one more group on every read, so that each relaunch
// overflows again with room left to grow. Each must come back as a typed
// fault.SiteArena corruption after at most one relaunch — never a loop — with
// every buffer of the failed launches freed before the error returns. A
// failed counter read after an overflow returns that error instead. No
// overflowed launch may reach the profile's kernel statistics.
func TestArenaOverflowBounded(t *testing.T) {
	plan, ch := sweepChunk(t, 300, 600) // eleven comparer groups
	ctx := context.Background()
	for _, tt := range []struct {
		name       string
		comparer   bool
		emit, grow int
		launches   int
	}{
		{"finder at worst case", false, 1, 0, 1},
		{"comparer counters zero", true, 0, 0, 1},
		{"comparer relaunch overflows", true, comparerFirstPages + 1, 1, 2},
		{"comparer counter read fails", true, -1, 0, 1},
	} {
		for _, core := range sweepCores() {
			t.Run(tt.name+"/"+core.name, func(t *testing.T) {
				o := &overflowOps{comparer: tt.comparer, emit: tt.emit, grow: tt.grow}
				open := core.open
				core.open = func(dev *gpu.Device, v kernels.ComparerVariant, onAsync func()) (hostOps, error) {
					inner, err := open(dev, v, onAsync)
					o.hostOps = inner
					return o, err
				}
				core.profile = newProfile()
				b, err := newSimBackend(core, plan)
				if err != nil {
					t.Fatal(err)
				}
				st, err := b.Stage(ctx, ch)
				if err != nil {
					t.Fatal(err)
				}
				if tt.comparer {
					if err = b.Find(ctx, st); err != nil {
						t.Fatal(err)
					}
				}
				live := len(b.live)
				if tt.comparer {
					err = b.Compare(ctx, st)
				} else {
					err = b.Find(ctx, st)
				}
				var fe *fault.Error
				if tt.emit < 0 {
					if !errors.Is(err, errCounterRead) {
						t.Errorf("err = %v, want the injected counter read failure", err)
					}
				} else if !errors.As(err, &fe) || fe.Site != fault.SiteArena || fe.Class != fault.Corruption {
					t.Errorf("err = %v, want a typed SiteArena corruption", err)
				} else if n := len(b.live); n != live {
					t.Errorf("%d live handles after the failed launch, %d before it", n, live)
				}
				kernel := "finder"
				if tt.comparer {
					kernel = kernels.ComparerKernelName(core.comparer())
				}
				if n := core.profile.Launches[kernel]; n != 0 {
					t.Errorf("%d overflowed %s launches reached the profile", n, kernel)
				}
				if len(o.layouts) != tt.launches {
					t.Errorf("%d launches (%v), want %d", len(o.layouts), o.layouts, tt.launches)
				}
				if g := o.layouts[0].Groups; tt.grow > 0 && g <= tt.emit+tt.grow {
					t.Fatalf("%d comparer groups leave the counters no room to call for a third launch", g)
				}
				if core.profile.OverflowRetries != int64(tt.launches-1) {
					t.Errorf("OverflowRetries = %d, want %d", core.profile.OverflowRetries, tt.launches-1)
				}
				b.Release(st)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				if n := core.Device.AllocatedBytes(); n != 0 {
					t.Errorf("device holds %d bytes after Close", n)
				}
			})
		}
	}
}
