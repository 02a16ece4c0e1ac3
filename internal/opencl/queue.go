package opencl

import (
	"context"
	"fmt"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/obs"
)

// Precomputed transfer-counter series names, so the hot enqueue paths never
// rebuild the label strings.
var (
	clTransferReadSeries  = obs.L(obs.MetricCLTransfers, "dir", "read")
	clTransferWriteSeries = obs.L(obs.MetricCLTransfers, "dir", "write")
)

// CommandQueue is an in-order OpenCL command queue — step 4 of Table I.
// Commands complete in submission order; because the queue is in-order, the
// simulator executes each command synchronously at enqueue time, which is an
// indistinguishable legal schedule. Events still carry completion state and
// the launch statistics a profiling-enabled queue would expose.
type CommandQueue struct {
	ctx *Context
	dev *Device

	mu       sync.Mutex
	released bool
}

// CreateCommandQueue creates a queue for one device of the context
// (clCreateCommandQueue).
func (c *Context) CreateCommandQueue(dev *Device) (*CommandQueue, error) {
	if err := c.use(); err != nil {
		return nil, err
	}
	for _, d := range c.devices {
		if d == dev {
			return &CommandQueue{ctx: c, dev: dev}, nil
		}
	}
	return nil, fmt.Errorf("%w: device %s is not part of the context", ErrDeviceNotFound, dev.Name())
}

// Device returns the queue's device.
func (q *CommandQueue) Device() *Device { return q.dev }

func (q *CommandQueue) use() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.released {
		return fmt.Errorf("command queue: %w", ErrReleased)
	}
	return nil
}

// Release releases the queue.
func (q *CommandQueue) Release() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.released {
		return fmt.Errorf("command queue: %w", ErrReleased)
	}
	q.released = true
	return nil
}

// Finish blocks until all enqueued commands complete (clFinish). Every
// command has already completed under the synchronous schedule, so only a
// released queue makes it fail.
func (q *CommandQueue) Finish() error {
	return q.use()
}

// Event tracks one enqueued command — step 12 of Table I. Stats exposes the
// kernel launch statistics for kernel events (nil for transfers). The queue
// is in-order, so an event is complete when its enqueue call returns, and a
// command that failed returned its error there instead of an event.
type Event struct {
	kernelName string
	stats      *gpu.Stats
}

// Wait blocks until the command completes (clWaitForEvents).
func (e *Event) Wait() error { return nil }

// Stats returns the launch statistics of a kernel event, or nil for
// transfers.
func (e *Event) Stats() *gpu.Stats { return e.stats }

// KernelName returns the kernel that produced the event, or "".
func (e *Event) KernelName() string { return e.kernelName }

// defaultLocalSize picks the work-group size when the caller passes no local
// size, modelling the paper's observation that "the sizes in the OpenCL
// program are determined by an OpenCL runtime": the runtime prefers a single
// wavefront (64) and otherwise the largest power of two that divides the
// global size.
func defaultLocalSize(global int) int {
	const preferred = 64
	if global%preferred == 0 {
		return preferred
	}
	size := 1
	for size*2 <= preferred && global%(size*2) == 0 {
		size *= 2
	}
	return size
}

// EnqueueNDRangeKernel enqueues a kernel over gws work-items — step 10 of
// Table I. Passing lws <= 0 lets the runtime choose the work-group size,
// as Cas-OFFinder's OpenCL host program does.
func (q *CommandQueue) EnqueueNDRangeKernel(k *Kernel, gws, lws int) (*Event, error) {
	return q.EnqueueNDRangeKernelCtx(nil, k, gws, lws)
}

// EnqueueNDRangeKernelCtx is EnqueueNDRangeKernel with a launch-bounding
// context: an injected kernel hang blocks on ctx until its deadline (the
// caller's watchdog) ends it. A nil ctx keeps the plain synchronous
// contract.
func (q *CommandQueue) EnqueueNDRangeKernelCtx(ctx context.Context, k *Kernel, gws, lws int) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	if err := q.ctx.use(); err != nil {
		return nil, err
	}
	if in := q.ctx.faults(); in != nil {
		if in.Fire(fault.SiteCLDeviceLost) {
			q.ctx.markLost()
			q.dev.sim.Instant("device-lost", obs.Attr{Key: "kernel", Value: k.name})
			return nil, fault.Errorf(fault.SiteCLDeviceLost, fault.Fatal,
				"opencl: enqueue %s: %w", k.name, ErrDeviceLost)
		}
		if in.Fire(fault.SiteCLEnqueue) {
			return nil, fault.Errorf(fault.SiteCLEnqueue, fault.Transient,
				"opencl: enqueue %s: %w", k.name, ErrEnqueueFailed)
		}
	}
	args, lds, err := k.bind()
	if err != nil {
		return nil, err
	}
	if lws <= 0 {
		lws = defaultLocalSize(gws)
	}
	spec, err := k.launchSpec(ctx, args, gws, lws, lds)
	if err != nil {
		return nil, err
	}
	stats, err := q.dev.sim.Launch(spec)
	if err != nil {
		return nil, fmt.Errorf("opencl: enqueue %s: %w", k.name, err)
	}
	return &Event{kernelName: k.name, stats: stats}, nil
}

// injectTransferFault samples the transfer fault site for one buffer
// command, returning the injected error-code result if it fires.
func (q *CommandQueue) injectTransferFault(op string) error {
	if in := q.ctx.faults(); in != nil && in.Fire(fault.SiteCLTransfer) {
		return fault.Errorf(fault.SiteCLTransfer, fault.Transient,
			"opencl: %s: %w", op, ErrTransferFailed)
	}
	return nil
}

// EnqueueReadBuffer reads n elements starting at element offset from the
// buffer object into dst — the first row of Table III. The blocking flag is
// accepted for fidelity; the in-order schedule makes both forms complete at
// return.
func EnqueueReadBuffer[T any](q *CommandQueue, src *Mem, blocking bool, offset, n int, dst []T) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	if err := q.ctx.use(); err != nil {
		return nil, err
	}
	if err := q.injectTransferFault("clEnqueueReadBuffer"); err != nil {
		return nil, err
	}
	data, err := Slice[T](src)
	if err != nil {
		return nil, err
	}
	if offset < 0 || n < 0 || offset+n > len(data) {
		return nil, fmt.Errorf("%w: read [%d, %d) of %d", ErrInvalidBufferRange, offset, offset+n, len(data))
	}
	if len(dst) < n {
		return nil, fmt.Errorf("%w: destination holds %d of %d elements", ErrInvalidBufferRange, len(dst), n)
	}
	copy(dst[:n], data[offset:offset+n])
	q.dev.sim.Metrics().Count(clTransferReadSeries, 1)
	// Readback corruption happens after a successful copy: the device's
	// global memory (or the bus) handed back damaged data, and only the
	// host-side copy sees it. The MSB flips are loud enough that the
	// engines' bounds validation detects and classifies them.
	if in := q.ctx.faults(); in != nil && in.Fire(fault.SiteReadback) {
		fault.CorruptAny(any(dst[:n]))
	}
	return &Event{}, nil
}

// EnqueueWriteBuffer writes n elements from src into the buffer object at
// element offset — the second row of Table III.
func EnqueueWriteBuffer[T any](q *CommandQueue, dst *Mem, blocking bool, offset, n int, src []T) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	if err := q.ctx.use(); err != nil {
		return nil, err
	}
	if err := q.injectTransferFault("clEnqueueWriteBuffer"); err != nil {
		return nil, err
	}
	data, err := Slice[T](dst)
	if err != nil {
		return nil, err
	}
	if offset < 0 || n < 0 || offset+n > len(data) {
		return nil, fmt.Errorf("%w: write [%d, %d) of %d", ErrInvalidBufferRange, offset, offset+n, len(data))
	}
	if len(src) < n {
		return nil, fmt.Errorf("%w: source holds %d of %d elements", ErrInvalidBufferRange, len(src), n)
	}
	copy(data[offset:offset+n], src[:n])
	q.dev.sim.Metrics().Count(clTransferWriteSeries, 1)
	return &Event{}, nil
}

// EnqueueCopyBuffer copies n elements from src (starting at srcOffset) to
// dst (starting at dstOffset) on the device (clEnqueueCopyBuffer). Both
// buffers must hold the same element type.
func EnqueueCopyBuffer[T any](q *CommandQueue, src, dst *Mem, srcOffset, dstOffset, n int) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	from, err := Slice[T](src)
	if err != nil {
		return nil, err
	}
	to, err := Slice[T](dst)
	if err != nil {
		return nil, err
	}
	if srcOffset < 0 || n < 0 || srcOffset+n > len(from) {
		return nil, fmt.Errorf("%w: copy source [%d, %d) of %d", ErrInvalidBufferRange, srcOffset, srcOffset+n, len(from))
	}
	if dstOffset < 0 || dstOffset+n > len(to) {
		return nil, fmt.Errorf("%w: copy destination [%d, %d) of %d", ErrInvalidBufferRange, dstOffset, dstOffset+n, len(to))
	}
	copy(to[dstOffset:dstOffset+n], from[srcOffset:srcOffset+n])
	return &Event{}, nil
}

// EnqueueFillBuffer fills n elements of dst starting at offset with value
// (clEnqueueFillBuffer).
func EnqueueFillBuffer[T any](q *CommandQueue, dst *Mem, value T, offset, n int) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	data, err := Slice[T](dst)
	if err != nil {
		return nil, err
	}
	if offset < 0 || n < 0 || offset+n > len(data) {
		return nil, fmt.Errorf("%w: fill [%d, %d) of %d", ErrInvalidBufferRange, offset, offset+n, len(data))
	}
	for i := offset; i < offset+n; i++ {
		data[i] = value
	}
	return &Event{}, nil
}
