package opencl

import (
	"fmt"
	"sync"

	"casoffinder/internal/gpu"
)

// Out-of-order command queues. A default OpenCL queue is in-order —
// commands implicitly complete in submission order, which is the mode the
// Cas-OFFinder host program uses and the synchronous schedule the rest of
// this frontend implements. OpenCL also offers
// CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE, where commands run as soon as
// their explicit event wait lists allow — the OpenCL counterpart of the
// SYCL runtime's implicit task graph (there derived from accessors, here
// spelled out by the programmer). This file adds that mode: an out-of-order
// queue runs each command on its own goroutine and the *WithEvents enqueue
// variants order them.

// QueueProperty configures command-queue creation.
type QueueProperty int

// Queue properties.
const (
	// InOrder is the default execution mode.
	InOrder QueueProperty = iota
	// OutOfOrder enables out-of-order execution; commands are ordered only
	// by their event wait lists.
	OutOfOrder
)

// CreateCommandQueueWithProperties creates a queue with the given execution
// mode (clCreateCommandQueueWithProperties).
func (c *Context) CreateCommandQueueWithProperties(dev *Device, prop QueueProperty) (*CommandQueue, error) {
	q, err := c.CreateCommandQueue(dev)
	if err != nil {
		return nil, err
	}
	q.outOfOrder = prop == OutOfOrder
	return q, nil
}

// OutOfOrder reports whether the queue executes commands out of order.
func (q *CommandQueue) OutOfOrder() bool { return q.outOfOrder }

// newPendingEvent returns an event that completes asynchronously.
func newPendingEvent(kernelName string) *Event {
	return &Event{kernelName: kernelName, done: make(chan struct{})}
}

func (e *Event) complete(stats *gpu.Stats, err error) {
	e.stats = stats
	e.err = err
	close(e.done)
}

// track registers an event so Finish can wait for it.
func (q *CommandQueue) track(e *Event) {
	q.mu.Lock()
	q.pending = append(q.pending, e)
	q.mu.Unlock()
}

// waitAll blocks until the events complete, returning the first error.
func waitAll(events []*Event) error {
	for _, e := range events {
		if e == nil {
			return fmt.Errorf("opencl: nil event in wait list")
		}
		if err := e.Wait(); err != nil {
			return fmt.Errorf("opencl: dependent command failed: %w", err)
		}
	}
	return nil
}

// EnqueueNDRangeKernelWithEvents enqueues a kernel that starts only after
// every event in waitList completes (the event_wait_list parameter of
// clEnqueueNDRangeKernel). On an in-order queue the wait list is checked
// synchronously; on an out-of-order queue the kernel runs asynchronously
// and the returned event completes when it finishes.
func (q *CommandQueue) EnqueueNDRangeKernelWithEvents(k *Kernel, gws, lws int, waitList []*Event) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	if !q.outOfOrder {
		if err := waitAll(waitList); err != nil {
			return nil, err
		}
		return q.EnqueueNDRangeKernel(k, gws, lws)
	}
	args, lds, err := k.bind()
	if err != nil {
		return nil, err
	}
	if lws <= 0 {
		lws = defaultLocalSize(gws)
	}
	name := k.name
	ev := newPendingEvent(name)
	q.track(ev)
	go func() {
		if err := waitAll(waitList); err != nil {
			ev.complete(nil, err)
			return
		}
		spec, err := k.launchSpec(nil, args, gws, lws, lds)
		if err != nil {
			ev.complete(nil, err)
			return
		}
		stats, err := q.dev.sim.Launch(spec)
		if err != nil {
			ev.complete(nil, fmt.Errorf("opencl: enqueue %s: %w", name, err))
			return
		}
		ev.complete(stats, nil)
	}()
	return ev, nil
}

// EnqueueReadBufferWithEvents reads a buffer after waitList completes.
func EnqueueReadBufferWithEvents[T any](q *CommandQueue, src *Mem, offset, n int, dst []T, waitList []*Event) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	if !q.outOfOrder {
		if err := waitAll(waitList); err != nil {
			return nil, err
		}
		return EnqueueReadBuffer(q, src, true, offset, n, dst)
	}
	ev := newPendingEvent("")
	q.track(ev)
	go func() {
		if err := waitAll(waitList); err != nil {
			ev.complete(nil, err)
			return
		}
		_, err := EnqueueReadBuffer(q, src, true, offset, n, dst)
		ev.complete(nil, err)
	}()
	return ev, nil
}

// EnqueueWriteBufferWithEvents writes a buffer after waitList completes.
func EnqueueWriteBufferWithEvents[T any](q *CommandQueue, dst *Mem, offset, n int, src []T, waitList []*Event) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	if !q.outOfOrder {
		if err := waitAll(waitList); err != nil {
			return nil, err
		}
		return EnqueueWriteBuffer(q, dst, true, offset, n, src)
	}
	ev := newPendingEvent("")
	q.track(ev)
	go func() {
		if err := waitAll(waitList); err != nil {
			ev.complete(nil, err)
			return
		}
		_, err := EnqueueWriteBuffer(q, dst, true, offset, n, src)
		ev.complete(nil, err)
	}()
	return ev, nil
}

// EnqueueMarkerWithWaitList returns an event that completes when every
// event in waitList has (clEnqueueMarkerWithWaitList).
func (q *CommandQueue) EnqueueMarkerWithWaitList(waitList []*Event) (*Event, error) {
	if err := q.use(); err != nil {
		return nil, err
	}
	ev := newPendingEvent("")
	q.track(ev)
	go func() {
		ev.complete(nil, waitAll(waitList))
	}()
	return ev, nil
}

// finishPending waits for every tracked asynchronous command.
func (q *CommandQueue) finishPending() error {
	q.mu.Lock()
	pending := q.pending
	q.pending = nil
	q.mu.Unlock()
	var first error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, e := range pending {
		wg.Add(1)
		go func(e *Event) {
			defer wg.Done()
			if err := e.Wait(); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(e)
	}
	wg.Wait()
	return first
}
