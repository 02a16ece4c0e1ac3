package sycl

import (
	"fmt"
	"reflect"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
)

// depState serialises conflicting commands on one buffer. Submitting a
// command group that writes a buffer makes it depend on the buffer's last
// writer and all readers since (WAW, WAR); a reading group depends on the
// last writer only (RAW). This is the implicit task graph a SYCL runtime
// derives from accessors.
type depState struct {
	mu        sync.Mutex
	lastWrite *Event
	readers   []*Event
}

// acquire registers ev as the next access and returns the events it must
// wait for.
func (ds *depState) acquire(ev *Event, write bool) []*Event {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var deps []*Event
	if ds.lastWrite != nil {
		deps = append(deps, ds.lastWrite)
	}
	if write {
		deps = append(deps, ds.readers...)
		ds.lastWrite = ev
		ds.readers = nil
	} else {
		ds.readers = append(ds.readers, ev)
	}
	return deps
}

// settled returns the events an outside observer (buffer destruction, host
// snapshot) must wait for: the last writer and all readers.
func (ds *depState) settled() []*Event {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	deps := make([]*Event, 0, len(ds.readers)+1)
	if ds.lastWrite != nil {
		deps = append(deps, ds.lastWrite)
	}
	deps = append(deps, ds.readers...)
	return deps
}

// bufferLike is the type-erased view of Buffer[T] the handler scheduler
// uses.
type bufferLike interface {
	state() *depState
	ensureAlloc(dev *gpu.Device) error
	live() error
}

// Buffer is a SYCL buffer of element type T — step 3 of the SYCL column of
// Table I and the right column of Table II. The runtime owns its storage:
// there is no explicit release; Destroy (the analogue of the buffer going
// out of scope in C++) waits for outstanding work and writes the contents
// back to the host slice the buffer was constructed over.
type Buffer[T any] struct {
	mu        sync.Mutex
	length    int
	data      []T // materialised lazily for sized constructors
	host      []T // write-back target; nil for sized constructors
	written   bool
	destroyed bool
	alloc     *gpu.Allocation
	kind      gpu.MemKind
	deps      depState
}

// NewBuffer constructs a buffer of ws zero elements —
// "buffer<T, D> d (WS)" in Table II. The initial content is unspecified in
// SYCL; the simulator zeroes it. Storage is materialised when the buffer is
// first used on a device, after the device memory budget admits it.
func NewBuffer[T any](ws int) (*Buffer[T], error) {
	if ws < 0 {
		return nil, fmt.Errorf("sycl: negative buffer size %d", ws)
	}
	return &Buffer[T]{length: ws, kind: gpu.GlobalMem}, nil
}

// NewBufferFrom constructs a buffer initialised from, and owning, the host
// slice for the buffer's lifetime — "buffer<T, D> d (h, WS)" in Table II.
// Destroy copies the (possibly modified) contents back to host.
func NewBufferFrom[T any](host []T) (*Buffer[T], error) {
	b := &Buffer[T]{length: len(host), data: make([]T, len(host)), host: host, kind: gpu.GlobalMem}
	copy(b.data, host)
	return b, nil
}

// NewConstantBuffer constructs a read-only buffer that kernels access
// through the constant address space (the "constant_buffer" access target
// the paper uses for the finder kernel's pattern argument).
func NewConstantBuffer[T any](host []T) (*Buffer[T], error) {
	b, err := NewBufferFrom(host)
	if err != nil {
		return nil, err
	}
	b.kind = gpu.ConstantMem
	return b, nil
}

func (b *Buffer[T]) state() *depState { return &b.deps }

func (b *Buffer[T]) live() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.destroyed {
		return ErrBufferDestroyed
	}
	return nil
}

// ensureAlloc lazily charges the buffer against the device memory budget on
// first use, the way a SYCL runtime materialises device storage when a
// kernel first needs it.
func (b *Buffer[T]) ensureAlloc(dev *gpu.Device) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.destroyed {
		return ErrBufferDestroyed
	}
	if b.alloc != nil {
		return nil
	}
	var zero T
	size := int64(b.length) * int64(reflect.TypeOf(zero).Size())
	alloc, err := dev.Alloc(b.kind, size)
	if err != nil {
		return fmt.Errorf("sycl: materialising buffer on %s: %w", dev.Spec().Name, err)
	}
	b.alloc = alloc
	if b.data == nil {
		b.data = make([]T, b.length)
	}
	return nil
}

func (b *Buffer[T]) materialize() {
	b.mu.Lock()
	if b.data == nil {
		b.data = make([]T, b.length)
	}
	b.mu.Unlock()
}

func (b *Buffer[T]) markWritten() {
	b.mu.Lock()
	b.written = true
	b.mu.Unlock()
}

// Destroy ends the buffer's lifetime: it waits until all submitted work on
// the buffer has completed, copies the contents back to the host memory the
// buffer was constructed over (if any work wrote to it), and returns the
// device storage. It reproduces the destruction semantics §III.A describes
// and is idempotent, unlike an OpenCL double release. Like the SYCL buffer
// destructor it does not throw for failed producers: a dependent command
// group's error was already delivered on its event and to the queue's
// asynchronous handler, so the wait here is a completion barrier only.
func (b *Buffer[T]) Destroy() error {
	for _, e := range b.deps.settled() {
		_ = e.Wait()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.destroyed {
		return nil
	}
	b.destroyed = true
	if b.host != nil && b.written && b.data != nil {
		copy(b.host, b.data)
	}
	if b.alloc != nil {
		if err := b.alloc.Free(); err != nil {
			return err
		}
		b.alloc = nil
	}
	return nil
}

// SnapshotRange waits for all outstanding work on the buffer and returns a
// copy of n elements starting at element offset — a ranged host accessor,
// reading back only the window the host needs.
func (b *Buffer[T]) SnapshotRange(offset, n int) ([]T, error) {
	for _, e := range b.deps.settled() {
		if err := e.Wait(); err != nil {
			return nil, fmt.Errorf("sycl: waiting for work on buffer: %w", err)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.destroyed {
		return nil, ErrBufferDestroyed
	}
	if offset < 0 || n < 0 || offset+n > b.length {
		return nil, fmt.Errorf("%w: snapshot [%d, %d) of %d",
			ErrInvalidAccessRange, offset, offset+n, b.length)
	}
	out := make([]T, n)
	if b.data != nil { // data may be nil (never materialised): zeros
		copy(out, b.data[offset:offset+n])
	}
	// Readback corruption strikes the host copy only, after the device
	// contents were read: the buffer itself stays intact, as when a bus
	// flips bits on the way back. Only materialised device buffers are
	// eligible — a never-used buffer has no device traffic to corrupt.
	if b.alloc != nil {
		if in := b.alloc.Device().Faults(); in != nil && in.Fire(fault.SiteReadback) {
			fault.CorruptAny(any(out))
		}
	}
	return out, nil
}

// AccessMode says how a kernel uses an accessor (read, write or
// both) — the sycl_read / sycl_write / sycl_read_write short names the
// paper uses.
type AccessMode int

// Access modes.
const (
	Read AccessMode = 1 << iota
	Write
	ReadWrite AccessMode = Read | Write
)

func (m AccessMode) writes() bool { return m&Write != 0 }

// Accessor indicates where and how buffer data is accessed (§III.A). It is
// created inside a command group via Access and hands the kernel a typed
// window onto the whole buffer.
type Accessor[T any] struct {
	buf *Buffer[T]
}

// Slice returns the buffer data, materialising the host-side storage of a
// sized buffer on first access (the device-side budget is still charged
// when the owning command group runs).
func (a *Accessor[T]) Slice() []T {
	a.buf.materialize()
	return a.buf.data
}

// Access creates an accessor covering the whole buffer —
// buf.get_access<mode>(cgh) in SYCL — and registers the access with the
// command group, so mode orders it against other groups on the buffer.
func Access[T any](h *Handler, buf *Buffer[T], mode AccessMode) (*Accessor[T], error) {
	if err := h.useable(); err != nil {
		return nil, err
	}
	if err := buf.live(); err != nil {
		return nil, err
	}
	if buf.kind == gpu.ConstantMem && mode.writes() {
		return nil, fmt.Errorf("sycl: constant buffer cannot be written")
	}
	h.registerAccess(buf, mode)
	return &Accessor[T]{buf: buf}, nil
}
