package sycl

import (
	"context"
	"fmt"
	"reflect"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
)

// bufAccess records one accessor registration for dependency analysis.
type bufAccess struct {
	buf   bufferLike
	write bool
}

// Handler is the SYCL command-group handler (cgh). A command group function
// receives it, creates accessors, and sets exactly one action: a kernel
// launch (ParallelFor, Table VI) or a copy (CopyToDevice / CopyFromDevice,
// Table III). The handler is only valid during its Submit call.
type Handler struct {
	q      *Queue
	ctx    context.Context
	usable bool

	accesses []bufAccess
	locals   []func() any
	ldsBytes int

	opName string
	action func(dev *gpu.Device) (*gpu.Stats, error)
}

func (h *Handler) useable() error {
	if !h.usable {
		return ErrHandlerReuse
	}
	return nil
}

func (h *Handler) registerAccess(buf bufferLike, mode AccessMode) {
	h.accesses = append(h.accesses, bufAccess{buf: buf, write: mode.writes()})
}

func (h *Handler) setAction(a func(dev *gpu.Device) (*gpu.Stats, error)) error {
	if err := h.useable(); err != nil {
		return err
	}
	if h.action != nil {
		return fmt.Errorf("sycl: command group already has an action")
	}
	h.action = a
	return nil
}

// ParallelFor launches a barrier-free kernel over an nd_range — the SYCL
// side of Table VI: h.parallel_for(nd_range<1>(gws, lws), [=](nd_item<1> it)
// { ... }). The body runs once per work-item, as the single phase of a
// ParallelForPhases kernel; the name labels the launch in the device log.
func (h *Handler) ParallelFor(name string, global, local gpu.Range, body func(it *NDItem)) error {
	if body == nil {
		return fmt.Errorf("sycl: nil kernel body")
	}
	return h.ParallelForPhases(name, global, local, func(*LocalMem) []gpu.Phase {
		// One NDItem per worker: its items run one after another.
		nd := new(NDItem)
		each := func(it *gpu.Item) {
			nd.it = it
			body(nd)
		}
		return []gpu.Phase{func(g *gpu.Group) { g.Each(each) }}
	})
}

// ParallelForPhases launches a kernel whose body is split at its barrier
// points into phases, each called once per work-group (gpu.PhaseKernel) —
// the SYCL frontend's counterpart of a compiler that statically resolves
// the kernel's barrier structure. The simulator calls kernel once per
// executing worker with that worker's local-accessor storage, which is
// reused across the worker's groups, so phases must write local memory
// before reading it, exactly as on a real device. A kernel that returns no
// phase, or a nil one, fails the launch on its event.
func (h *Handler) ParallelForPhases(name string, global, local gpu.Range, kernel func(m *LocalMem) []gpu.Phase) error {
	if kernel == nil {
		return fmt.Errorf("sycl: nil phase kernel")
	}
	locals := h.locals
	lds := h.ldsBytes
	lctx := h.ctx
	h.opName = name
	return h.setAction(func(dev *gpu.Device) (*gpu.Stats, error) {
		return dev.Launch(gpu.LaunchSpec{
			Name:   name,
			Global: global,
			Local:  local,
			Phases: func() []gpu.Phase {
				m := &LocalMem{slices: make([]any, len(locals))}
				for i, mk := range locals {
					m.slices[i] = mk()
				}
				return kernel(m)
			},
			LDSBytesPerWG: lds,
			Ctx:           lctx,
		})
	})
}

// CopyFromDevice copies an accessor's range into host memory — the first
// row of Table III (cgh.copy(deviceAccessor, hostPtr)).
func CopyFromDevice[T any](h *Handler, dst []T, src *Accessor[T]) error {
	if len(dst) < src.Len() {
		return fmt.Errorf("%w: host destination holds %d of %d elements",
			ErrInvalidAccessRange, len(dst), src.Len())
	}
	return h.setAction(func(dev *gpu.Device) (*gpu.Stats, error) {
		copy(dst[:src.Len()], src.Slice())
		return nil, nil
	})
}

// CopyToDevice copies host memory into an accessor's range — the second row
// of Table III (cgh.copy(hostPtr, deviceAccessor)).
func CopyToDevice[T any](h *Handler, dst *Accessor[T], src []T) error {
	if !dst.Mode().writes() {
		return fmt.Errorf("sycl: copy destination accessor is read-only")
	}
	if len(src) < dst.Len() {
		return fmt.Errorf("%w: host source holds %d of %d elements",
			ErrInvalidAccessRange, len(src), dst.Len())
	}
	return h.setAction(func(dev *gpu.Device) (*gpu.Stats, error) {
		copy(dst.Slice(), src[:dst.Len()])
		return nil, nil
	})
}

// Copy copies one device accessor's range into another — the
// buffer-to-buffer form of Table III (cgh.copy(srcAccessor, dstAccessor)).
// The copy stays on the device: it crosses no host boundary, so it has no
// readback fault surface and costs no PCIe traffic.
func Copy[T any](h *Handler, dst, src *Accessor[T]) error {
	if !dst.Mode().writes() {
		return fmt.Errorf("sycl: copy destination accessor is read-only")
	}
	if dst.Len() < src.Len() {
		return fmt.Errorf("%w: copy destination holds %d of %d elements",
			ErrInvalidAccessRange, dst.Len(), src.Len())
	}
	return h.setAction(func(dev *gpu.Device) (*gpu.Stats, error) {
		copy(dst.Slice(), src.Slice())
		return nil, nil
	})
}

// LocalAccessor is shared local memory declared in a command group — the
// SYCL replacement for an OpenCL __local kernel argument (§III.E).
type LocalAccessor[T any] struct {
	index int
}

// LocalMem is one worker's storage for the command group's local accessors:
// the local memory of whichever work-group the worker is running.
type LocalMem struct {
	slices []any
}

// NewLocalAccessor declares n elements of work-group-local storage.
func NewLocalAccessor[T any](h *Handler, n int) (*LocalAccessor[T], error) {
	if err := h.useable(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("sycl: local accessor needs a positive size, got %d", n)
	}
	idx := len(h.locals)
	h.locals = append(h.locals, func() any { return make([]T, n) })
	var zero T
	h.ldsBytes += n * int(reflect.TypeOf(zero).Size())
	return &LocalAccessor[T]{index: idx}, nil
}

// Slice resolves the accessor's storage in m, once per worker rather than
// once per access.
func (la *LocalAccessor[T]) Slice(m *LocalMem) []T {
	return m.slices[la.index].([]T)
}

// Submit runs a command-group function and schedules its action — the SYCL
// queue submit of Tables III and VI. The returned event completes when the
// action has run; buffer-access dependencies order it against previously
// submitted groups. Errors returned by the command-group function, or
// raised asynchronously by the action, surface on the event (and on
// Queue.Wait) and are delivered to the queue's async handler, mirroring
// SYCL's async exception machinery.
func (q *Queue) Submit(cg func(h *Handler) error) *Event {
	return q.SubmitCtx(nil, cg)
}

// SubmitCtx is Submit with a launch-bounding context: kernels launched by
// the command group carry ctx into the simulator, so an injected hang
// blocks on it until its deadline (the caller's watchdog) ends it. A nil
// ctx keeps the plain Submit contract.
func (q *Queue) SubmitCtx(ctx context.Context, cg func(h *Handler) error) *Event {
	ev := newEvent()
	q.mu.Lock()
	q.events = append(q.events, ev)
	q.mu.Unlock()

	h := &Handler{q: q, ctx: ctx, usable: true}
	if err := cg(h); err != nil {
		ev.complete(nil, err)
		return ev
	}
	h.usable = false
	if h.action == nil {
		ev.complete(nil, ErrNoAction)
		return ev
	}
	op := h.opName
	if op == "" {
		op = "command-group"
	}

	// The async-exception fault site fires synchronously at submission so
	// the per-site event sequence depends only on submission order, which
	// the engines keep deterministic. The failure itself stays
	// asynchronous in character: it surfaces on the event and through the
	// installed handler, never as a Submit return value.
	if in := q.dev.Faults(); in != nil && in.Fire(fault.SiteSYCLAsync) {
		err := fault.New(fault.SiteSYCLAsync, fault.Transient,
			&AsyncError{Op: op, Err: fmt.Errorf("injected asynchronous exception")})
		ev.complete(nil, err)
		q.deliverAsync(op, err)
		return ev
	}

	// Register this event in each touched buffer's dependency state, in
	// submission order, and collect what it must wait for.
	var deps []*Event
	buffers := make([]bufferLike, 0, len(h.accesses))
	for _, a := range h.accesses {
		deps = append(deps, a.buf.state().acquire(ev, a.write)...)
		buffers = append(buffers, a.buf)
		if a.write {
			if marker, ok := a.buf.(interface{ markWritten() }); ok {
				marker.markWritten()
			}
		}
	}

	// The handler is told before the event completes: once a waiter on the
	// event runs, the delivery — and whatever the handler recorded — has
	// already happened, so nothing of a command group outlives its event.
	finish := func(stats *gpu.Stats, err error) {
		q.deliverAsync(op, err)
		ev.complete(stats, err)
	}
	go func() {
		for _, d := range deps {
			if err := d.Wait(); err != nil {
				finish(nil, fmt.Errorf("sycl: dependency failed: %w", err))
				return
			}
		}
		for _, b := range buffers {
			if err := b.ensureAlloc(q.dev); err != nil {
				finish(nil, err)
				return
			}
		}
		finish(h.action(q.dev))
	}()
	return ev
}
