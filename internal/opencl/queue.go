package opencl

import (
	"context"
	"fmt"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/obs"
)

// clTransferReadSeries is the read-back counter's series name, precomputed
// so the hot read path never rebuilds the label string.
var clTransferReadSeries = obs.L(obs.MetricCLTransfers, "dir", "read")

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

// Event tracks one enqueued command — step 12 of Table I. Stats exposes the
// kernel launch statistics for kernel events (nil for transfers). The queue
// is in-order, so an event is complete when its enqueue call returns, and a
// command that failed returned its error there instead of an event.
type Event struct {
	stats *gpu.Stats
}

// Wait blocks until the command completes (clWaitForEvents).
func (e *Event) Wait() error { return nil }

// Stats returns the launch statistics of a kernel event, or nil for
// transfers.
func (e *Event) Stats() *gpu.Stats { return e.stats }

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
// as Cas-OFFinder's OpenCL host program does. The launch carries ctx into
// the simulator, so an injected kernel hang blocks on it until its deadline
// (the caller's watchdog) ends it; a nil ctx bounds nothing.
func (q *CommandQueue) EnqueueNDRangeKernel(ctx context.Context, k *Kernel, gws, lws int) (*Event, error) {
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
	return &Event{stats: stats}, nil
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
	if in := q.ctx.faults(); in != nil && in.Fire(fault.SiteCLTransfer) {
		return nil, fault.Errorf(fault.SiteCLTransfer, fault.Transient,
			"opencl: clEnqueueReadBuffer: %w", ErrTransferFailed)
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
