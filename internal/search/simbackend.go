package search

import (
	"context"
	"fmt"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// The simulator engines differ in host *steps*, not in algorithm (the
// paper's Tables I–VI): both drive the same finder and comparer kernels
// over the same chunk plan. Everything that is not a host-API call therefore
// lives once, in simBackend, over the hostOps seam below; simcl.go and
// simsycl.go supply the seam's two implementations and nothing else.

// devBuf is an opaque device buffer handle minted by a hostOps
// implementation. Handles are comparable, so the driver can key its live set
// on them.
type devBuf any

// bufKind says how the kernels use a buffer; each host API spells that its
// own way (OpenCL memory flags, the SYCL buffer constructor).
type bufKind int

const (
	// bufIn is host-initialised kernel input.
	bufIn bufKind = iota
	// bufConst is bufIn behind the constant address space.
	bufConst
	// bufOut is zeroed kernel output the host reads back.
	bufOut
	// bufState is read and written by kernels: zeroed, or host-initialised
	// when a host slice is given.
	bufState
)

// hostOps is the whole of what the chunk driver needs from a host API. The
// element type of a buffer travels in the dynamic type of the host slice
// ([]byte, []int32, []uint16 or []uint32; a nil slice of the type for a
// zeroed buffer), since an interface cannot carry generic methods.
type hostOps interface {
	// alloc creates a device buffer of n elements.
	alloc(kind bufKind, n int, host any) (devBuf, error)
	// free returns a buffer to the device. The handle is spent even when an
	// error is reported.
	free(b devBuf) error
	// launchFinder and launchComparer run one kernel to completion and
	// return its statistics.
	launchFinder(ctx context.Context, l *finderLaunch) (*gpu.Stats, error)
	launchComparer(ctx context.Context, l *comparerLaunch) (*gpu.Stats, error)
	// gather compacts a clean finder launch's claimed pages into dense
	// buffers with one kernel launch, complete on return. The launch is
	// not the paper's, so its statistics are not returned.
	gather(ctx context.Context, l *gatherLaunch) error
	// readRange reads n elements starting at off into the host slice dst.
	readRange(src devBuf, off, n int, dst any) error
	// close tears down the run-wide API objects.
	close() error
}

// openOps builds a host-ops implementation on a device for one run. onAsync
// is called for every asynchronous exception the API delivers out of band.
type openOps func(dev *gpu.Device, v kernels.ComparerVariant, onAsync func()) (hostOps, error)

// hostSlice recovers the typed host slice behind a seam argument.
func hostSlice[T any](v any) ([]T, error) {
	s, ok := v.([]T)
	if !ok {
		return nil, fmt.Errorf("search: host slice is %T, buffer holds %T", v, s)
	}
	return s, nil
}

// simArena is one launch's device-side arena state: the page cursor, the
// per-group emission counters and page table, and the overflow counter.
type simArena struct {
	layout alloc.Layout

	cursor, count, page, ovf devBuf
}

// finderLaunch is one finder launch: the staged chunk, the run's pattern
// tables, the page-strided outputs and their arena, over gws work-items in
// groups of wg (0 leaves the group size to the runtime).
type finderLaunch struct {
	chr, pat, patIdx devBuf
	plen, sites      int
	loci, flags      devBuf
	arena            *simArena
	gws, wg          int
}

// comparerLaunch is one guide's comparer launch over the chunk's n compacted
// candidates.
type comparerLaunch struct {
	n                  int
	chr, loci, flags   devBuf
	comp, compIdx      devBuf
	plen               int
	threshold          uint16
	mmLoci, mmCnt, dir devBuf
	arena              *simArena
	gws, wg            int
}

// gatherLaunch is one chunk's gather launch: the finder's page-strided
// outputs and arena, and the n-entry dense buffers they compact into, by
// one work-group of wg items.
type gatherLaunch struct {
	loci, flags       devBuf
	arena             *simArena
	n                 int
	outLoci, outFlags devBuf
	wg                int
}

// simBackend adapts a host program to the pipeline Backend contract. It owns
// everything that is not an API call: which buffers exist and when they die,
// arena provisioning and the overflow relaunch, the gather and the entry page
// walk, readback validation and all profile accounting. Every buffer is
// tracked in the live set so Close can free whatever an aborted run left
// behind.
type simBackend struct {
	e    *simCore
	plan *pipeline.Plan
	prof *Profile
	ops  hostOps

	patBuf, patIdxBuf devBuf

	// mu guards live.
	mu   sync.Mutex
	live map[devBuf]struct{}
}

// newSimBackend opens the engine's host API and uploads the run-constant
// pattern tables. On any failure the partially built state is torn down via
// Close.
func newSimBackend(e *simCore, plan *pipeline.Plan) (_ *simBackend, err error) {
	b := &simBackend{e: e, plan: plan, prof: e.profile, live: make(map[devBuf]struct{})}
	defer func() {
		if err != nil {
			b.Close()
		}
	}()
	if b.ops, err = e.open(e.Device, e.comparer(), b.prof.addAsync); err != nil {
		return nil, err
	}
	pattern := plan.Pattern
	if b.patBuf, err = b.alloc(bufConst, len(pattern.Codes), pattern.Codes); err != nil {
		return nil, err
	}
	if b.patIdxBuf, err = b.alloc(bufIn, len(pattern.Index), pattern.Index); err != nil {
		return nil, err
	}
	b.prof.addStaged(int64(len(pattern.Codes) + 4*len(pattern.Index)))
	return b, nil
}

// alloc creates a buffer and registers it in the live set.
func (b *simBackend) alloc(kind bufKind, n int, host any) (devBuf, error) {
	m, err := b.ops.alloc(kind, n, host)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.live[m] = struct{}{}
	b.mu.Unlock()
	return m, nil
}

// free frees a buffer and drops it from the live set; nil handles are
// ignored so error paths can free unconditionally.
func (b *simBackend) free(m devBuf) error {
	if m == nil {
		return nil
	}
	b.mu.Lock()
	delete(b.live, m)
	b.mu.Unlock()
	return b.ops.free(m)
}

// Close implements pipeline.Backend: free every still-live buffer (the
// pattern tables plus whatever staged chunks never reached Drain), then the
// API's run-wide objects, folding the first error.
func (b *simBackend) Close() (err error) {
	b.mu.Lock()
	leaked := b.live
	b.live = make(map[devBuf]struct{})
	b.mu.Unlock()
	for m := range leaked {
		closeErr(b.ops.free(m), &err)
	}
	if b.ops != nil {
		closeErr(b.ops.close(), &err)
		b.ops = nil
	}
	return err
}

// createArena allocates and initialises one launch's arena state buffers
// for the layout (cursor and counters zeroed, page table cleared to NoPage).
// On error the partial allocation is left to Close.
func (b *simBackend) createArena(l alloc.Layout) (*simArena, error) {
	a := &simArena{layout: l}
	var err error
	if a.cursor, err = b.alloc(bufState, 1, []uint32(nil)); err != nil {
		return nil, err
	}
	if a.count, err = b.alloc(bufState, l.Groups, []uint32(nil)); err != nil {
		return nil, err
	}
	if a.page, err = b.alloc(bufState, l.Groups, alloc.UnsetPages(l.Groups)); err != nil {
		return nil, err
	}
	if a.ovf, err = b.alloc(bufState, 1, []uint32(nil)); err != nil {
		return nil, err
	}
	b.prof.addStaged(l.MetaBytes())
	return a, nil
}

// readArena reads the launch's arena state back. The overflow counter is
// read (and accounted) first. A non-zero value means the launch dropped
// entries: its per-group emission counters are read (and accounted) and
// returned as overflowed, with a nil geometry, for alloc.Refit to size the
// relaunch — overflowed is non-nil even when that read fails, so the caller
// still knows the launch was voided. A clean launch's claim state is read
// and decoded instead — Decode rejects impossible state as fault.SiteArena
// corruption, after the readback bytes are already on the profile.
func (b *simBackend) readArena(a *simArena) (geo *alloc.Geometry, overflowed []uint32, err error) {
	groups := a.layout.Groups
	state := make([]uint32, 2+2*groups)
	ovf, cursor, count, pageOf := state[:1], state[1:2], state[2:2+groups], state[2+groups:]
	if err := b.ops.readRange(a.ovf, 0, 1, ovf); err != nil {
		return nil, nil, err
	}
	b.prof.addRead(4)
	if ovf[0] != 0 {
		if err := b.ops.readRange(a.count, 0, groups, count); err != nil {
			return nil, count, err
		}
		b.prof.addRead(4 * int64(groups))
		return nil, count, nil
	}
	if err := b.ops.readRange(a.cursor, 0, 1, cursor); err != nil {
		return nil, nil, err
	}
	if err := b.ops.readRange(a.count, 0, groups, count); err != nil {
		return nil, nil, err
	}
	if err := b.ops.readRange(a.page, 0, groups, pageOf); err != nil {
		return nil, nil, err
	}
	b.prof.addRead(4 + 8*int64(groups))
	geo, err = alloc.Decode(cursor[0], count, pageOf, a.layout.PageSlots, a.layout.Pages)
	return geo, nil, err
}

// arenaPass describes one kernel's launch-and-collect cycle to runArena.
type arenaPass struct {
	// kernel is the kernel's name in the profile and in error text.
	kernel string
	// outKind and outElems describe the page-strided output arrays (one
	// nil slice of the element type each), entryBytes their combined width.
	outKind    bufKind
	outElems   []any
	entryBytes int
	// pad is the work-group size the layout was cut for.
	pad int
	// limit is the most entries an intact launch can emit.
	limit int
	// launch runs the kernel into the outputs; consume takes the decoded
	// geometry of a clean launch before the outputs and arena are freed.
	launch  func(a *simArena, out []devBuf) (*gpu.Stats, error)
	consume func(geo *alloc.Geometry, a *simArena, out []devBuf) error
}

// runArena launches a kernel into an arena provisioned at layout and hands
// the clean launch's geometry to the pass. A launch that overflows is
// relaunched once, at the layout its own emission counters call for
// (alloc.Refit); a second overflow, or counters that call for no more pages
// than the launch had, can only be corrupted state and return a typed
// fault.SiteArena corruption, like every other impossible arena shape.
// Only the arena's claim state crosses back to the host here. An error leaves the attempt's buffers to Close.
func (b *simBackend) runArena(layout alloc.Layout, p *arenaPass) error {
	for relaunched := false; ; relaunched = true {
		out := make([]devBuf, len(p.outElems))
		for i, elem := range p.outElems {
			var err error
			if out[i], err = b.alloc(p.outKind, layout.Slots(), elem); err != nil {
				return err
			}
		}
		arena, err := b.createArena(layout)
		if err != nil {
			return err
		}
		b.prof.addArena(layout.DataBytes(p.entryBytes)+layout.MetaBytes(), 0)
		release := func() error {
			var err error
			for _, m := range out {
				closeErr(b.free(m), &err)
			}
			for _, m := range []devBuf{arena.cursor, arena.count, arena.page, arena.ovf} {
				closeErr(b.free(m), &err)
			}
			return err
		}

		stats, err := p.launch(arena, out)
		if err != nil {
			return err
		}
		geo, overflowed, err := b.readArena(arena)
		if overflowed == nil {
			// Which groups won the pages of a launch that overflowed is a
			// race between workers, so a voided attempt's statistics are
			// not a function of the input: it is accounted by addArena
			// above and OverflowRetries below, and its kernel counters stay
			// out of the profile. A launch whose readback failed before it
			// showed an overflow still counts.
			b.prof.addKernel(p.kernel, stats, p.pad)
		}
		if err != nil {
			return err
		}
		if overflowed != nil {
			if err := release(); err != nil {
				return err
			}
			refit, ok := alloc.Refit(layout, overflowed)
			if relaunched || !ok {
				return fault.Errorf(fault.SiteArena, fault.Corruption,
					"search: %s: %s arena overflowed at %v, more than its emission counters allow", b.e.name, p.kernel, layout)
			}
			layout = refit
			b.prof.addOverflowRetry()
			continue
		}
		b.prof.addArena(0, int64(geo.Claimed))

		// A total past the kernel's own bound can only be corrupted arena
		// state that slipped past Decode's structural checks. Reject before
		// sizing a gather on it — the readback bytes are already on the
		// profile.
		if geo.Total > p.limit {
			return fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: %s: %s count %d exceeds the %d possible entries", b.e.name, p.kernel, geo.Total, p.limit)
		}
		if err := p.consume(geo, arena, out); err != nil {
			return err
		}
		return release()
	}
}

// walkPages visits the claimed pages in work-group order, handing fn each
// page's offset in the arena, its offset in the compacted output and its
// entry count. Page numbers come out of the cursor race, so walking them in
// page order would make the compacted order — and every counter downstream
// of it — depend on the schedule.
func walkPages(geo *alloc.Geometry, fn func(base, pos, n int) error) error {
	pos := 0
	for _, p := range geo.Order {
		n := geo.Counts[p]
		if err := fn(p*geo.PageSlots, pos, n); err != nil {
			return err
		}
		pos += n
	}
	return nil
}

// simStaged is one chunk's state: the sequence buffer created at stage time,
// the device-side compacted candidate buffers the finder arena is drained
// into, and the raw entries accumulated across guides.
type simStaged struct {
	ch *genome.Chunk

	chr, cLoci, cFlags devBuf

	// n is the finder's candidate count, the length of cLoci and cFlags.
	n       int
	entries []rawHit
}

// Stage implements pipeline.Backend: create the chunk's sequence buffer. The
// chunk is staged as-is: the kernels' IUPAC tables accept soft-masked
// lower-case bases (site rendering normalizes case in the reported site).
func (b *simBackend) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	s := &simStaged{ch: ch}
	var err error
	if s.chr, err = b.alloc(bufIn, len(ch.Data), ch.Data); err != nil {
		return nil, err
	}
	b.prof.addStagedChunk(int64(len(ch.Data)))
	return s, nil
}

// groupSize is the work-group size arena layouts are cut for. Padding the
// global size to it makes the effective local size deterministic even when
// wg = 0 leaves the choice to the runtime (which picks the largest power of
// two up to 64 dividing the global size), so the group count — and with it
// the arena's page tables — is known on the host.
func (b *simBackend) groupSize() int {
	if wg := b.e.wgSize(); wg > 0 {
		return wg
	}
	return 64
}

var (
	finderOut   = []any{[]uint32(nil), []byte(nil)}
	comparerOut = []any{[]uint32(nil), []uint16(nil), []byte(nil)}
)

// Find implements pipeline.Backend: launch the finder over the padded site
// range, then compact the claimed pages into the comparer's exact-size input
// with one gather launch — the comparer indexes loci/flags densely in
// [0, n), so a page-strided view would not do, and compacting on the device
// keeps the candidates off the bus entirely. The gather reads the page
// order and offsets from the arena tables still on the device; the host's
// decoded geometry only sizes the dense buffers.
func (b *simBackend) Find(ctx context.Context, st pipeline.Staged) error {
	s := st.(*simStaged)
	sites := s.ch.Body
	if sites == 0 {
		// A final chunk can own zero site starts (its body is shorter than
		// the pattern's overlap); there is nothing to scan, and a zero-sized
		// ND-range cannot be launched.
		return nil
	}
	pad := b.groupSize()
	gws := (sites + pad - 1) / pad * pad
	return b.runArena(alloc.WorstCase(gws/pad, pad), &arenaPass{
		kernel:  "finder",
		outKind: bufState, outElems: finderOut, entryBytes: finderEntryBytes,
		pad:   pad,
		limit: sites, // at most one entry per scanned site
		launch: func(a *simArena, out []devBuf) (*gpu.Stats, error) {
			return b.ops.launchFinder(ctx, &finderLaunch{
				chr: s.chr, pat: b.patBuf, patIdx: b.patIdxBuf,
				plen: b.plan.Pattern.PatternLen, sites: sites,
				loci: out[0], flags: out[1], arena: a, gws: gws, wg: b.e.wgSize(),
			})
		},
		consume: func(geo *alloc.Geometry, a *simArena, out []devBuf) (err error) {
			s.n = geo.Total
			b.prof.addCandidates(int64(s.n))
			if s.n == 0 {
				return nil
			}
			if s.cLoci, err = b.alloc(bufState, s.n, []uint32(nil)); err != nil {
				return err
			}
			if s.cFlags, err = b.alloc(bufState, s.n, []byte(nil)); err != nil {
				return err
			}
			return b.ops.gather(ctx, &gatherLaunch{
				loci: out[0], flags: out[1], arena: a, n: s.n,
				outLoci: s.cLoci, outFlags: s.cFlags, wg: pad,
			})
		},
	})
}

// Compare implements pipeline.Backend: one comparer launch per guide, in
// query order, as the paper's host programs issue them. A chunk the finder
// left without candidates launches nothing and stages no guide tables.
func (b *simBackend) Compare(ctx context.Context, st pipeline.Staged) error {
	s := st.(*simStaged)
	if s.n == 0 {
		return nil
	}
	for qi := range b.plan.Guides {
		if err := b.compareGuide(ctx, s, qi); err != nil {
			return err
		}
	}
	return nil
}

// compareGuide uploads one guide's tables, launches the comparer (two slots
// per candidate in the worst case) and gathers the entries with ranged reads
// of each claimed page's valid prefix — the readback traffic is the counted
// entries however sparsely the pages are filled.
func (b *simBackend) compareGuide(ctx context.Context, s *simStaged, qi int) (err error) {
	g := b.plan.Guides[qi]
	q := b.plan.Request.Queries[qi]

	comp, err := b.alloc(bufIn, len(g.Codes), g.Codes)
	if err != nil {
		return err
	}
	defer func() { closeErr(b.free(comp), &err) }()
	compIdx, err := b.alloc(bufIn, len(g.Index), g.Index)
	if err != nil {
		return err
	}
	defer func() { closeErr(b.free(compIdx), &err) }()
	b.prof.addStaged(int64(len(g.Codes) + 4*len(g.Index)))

	pad := b.groupSize()
	cgws := (s.n + pad - 1) / pad * pad
	return b.runArena(comparerLayout(cgws/pad, 2*pad, b.e.worstCaseArena), &arenaPass{
		kernel:  kernels.ComparerKernelName(b.e.comparer()),
		outKind: bufOut, outElems: comparerOut, entryBytes: comparerEntryBytes,
		pad:   pad,
		limit: 2 * s.n, // at most one entry per strand per candidate
		launch: func(a *simArena, out []devBuf) (*gpu.Stats, error) {
			return b.ops.launchComparer(ctx, &comparerLaunch{
				n: s.n, chr: s.chr, loci: s.cLoci, flags: s.cFlags,
				comp: comp, compIdx: compIdx,
				plen: g.PatternLen, threshold: uint16(q.MaxMismatches),
				mmLoci: out[0], mmCnt: out[1], dir: out[2], arena: a, gws: cgws, wg: b.e.wgSize(),
			})
		},
		consume: func(geo *alloc.Geometry, _ *simArena, out []devBuf) error {
			cnt := geo.Total
			b.prof.addEntries(int64(cnt))
			if cnt == 0 {
				return nil
			}
			mmLoci := make([]uint32, cnt)
			mmCount := make([]uint16, cnt)
			dirs := make([]byte, cnt)
			if err := walkPages(geo, func(base, pos, n int) error {
				if err := b.ops.readRange(out[0], base, n, mmLoci[pos:pos+n]); err != nil {
					return err
				}
				if err := b.ops.readRange(out[1], base, n, mmCount[pos:pos+n]); err != nil {
					return err
				}
				return b.ops.readRange(out[2], base, n, dirs[pos:pos+n])
			}); err != nil {
				return err
			}
			b.prof.addRead(int64(comparerEntryBytes * cnt))
			for i := 0; i < cnt; i++ {
				s.entries = append(s.entries, rawHit{qi: qi, pos: int(mmLoci[i]), dir: dirs[i], mm: int(mmCount[i])})
			}
			return nil
		},
	})
}

// freeStaged frees a chunk's buffers, folding the first error.
func (b *simBackend) freeStaged(s *simStaged) (err error) {
	closeErr(b.free(s.chr), &err)
	closeErr(b.free(s.cLoci), &err)
	closeErr(b.free(s.cFlags), &err)
	s.chr, s.cLoci, s.cFlags = nil, nil, nil
	return err
}

// Drain implements pipeline.Backend: render the accumulated entries and free
// the chunk's buffers. Corrupted entries keep the buffers for Release or
// Close and hand the corruption class to the executor.
func (b *simBackend) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]Hit, error) {
	s := st.(*simStaged)
	hits, err := drainEntries(r, s.ch, b.plan.Guides, s.entries)
	if err != nil {
		return nil, err
	}
	if err := b.freeStaged(s); err != nil {
		return nil, err
	}
	return hits, nil
}

// Release frees an abandoned staged handle's buffers as soon as an attempt
// is abandoned, rather than holding them (against the device memory budget)
// until Close.
func (b *simBackend) Release(st pipeline.Staged) {
	if s, ok := st.(*simStaged); ok && s != nil {
		_ = b.freeStaged(s) // a lost context fails the frees; the handles are spent either way
	}
}
