// Package sycl is a SYCL-2020-shaped host API over the execution-model
// simulator (internal/gpu). It is the migration target of the paper: device
// selection collapses to a selector object, kernels are Go closures
// submitted through a queue, host/device data movement happens through
// buffers and accessors, and resource lifetimes are managed by the runtime
// (buffer destruction writes data back to the host) instead of explicit
// releases. The eight logical programming steps of Table I, and the SYCL
// sides of the migration-path Tables II–VI, map one-to-one onto this API:
//
//	Table I   — Selector / NewQueue / NewBufferFrom / Submit+ParallelFor /
//	            accessors / Event / implicit destruction
//	Table II  — NewBuffer[T](ws), NewBufferFrom(host), Buffer.Destroy
//	Table III — AccessRange + CopyFromDevice / CopyToDevice with offsets
//	Table IV  — NDItem.GetGlobalID / GetGroup / GetLocalRange; the barrier
//	            is the boundary between two ParallelForPhases phases
//	Table V   — AtomicRef.FetchAdd via AtomicInc
//	Table VI  — Queue.Submit(func(h)) { h.ParallelFor(NDRange, body) }
//
// Submission is genuinely asynchronous: each command group runs on its own
// goroutine once the accessor-declared dependencies (read-after-write,
// write-after-read, write-after-write per buffer) have settled, which is how
// a conforming SYCL runtime schedules its implicit task graph.
package sycl

import (
	"errors"
	"fmt"
	"sync"

	"casoffinder/internal/gpu"
	"casoffinder/internal/obs"
)

// Frontend errors.
var (
	// ErrNoDevice is returned when a selector matches no device.
	ErrNoDevice = errors.New("sycl: no device matches selector")
	// ErrBufferDestroyed marks accessor creation or data access after
	// Buffer.Destroy.
	ErrBufferDestroyed = errors.New("sycl: buffer has been destroyed")
	// ErrInvalidAccessRange marks a ranged accessor outside the buffer.
	ErrInvalidAccessRange = errors.New("sycl: accessor range out of bounds")
	// ErrNoAction marks a command group that neither copies nor launches.
	ErrNoAction = errors.New("sycl: command group defines no action")
	// ErrHandlerReuse marks use of a handler outside its Submit call.
	ErrHandlerReuse = errors.New("sycl: handler used outside its command group")
)

// DeviceSelector picks one device from the available candidates — the SYCL
// device selector class of Table I, which "searches a device of a user's
// provided preference (e.g., GPU) at runtime".
type DeviceSelector interface {
	Select(candidates []*gpu.Device) (*gpu.Device, error)
}

// GPUSelector prefers the device with the most compute units, modelling
// sycl::gpu_selector_v choosing the strongest accelerator.
type GPUSelector struct{}

// Select returns the candidate with the most compute units.
func (GPUSelector) Select(candidates []*gpu.Device) (*gpu.Device, error) {
	var best *gpu.Device
	for _, d := range candidates {
		if best == nil || d.Spec().ComputeUnits() > best.Spec().ComputeUnits() {
			best = d
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: gpu_selector over %d candidates", ErrNoDevice, len(candidates))
	}
	return best, nil
}

// NameSelector picks the device with the given short name.
type NameSelector struct {
	Name string
}

// Select returns the candidate whose spec name equals Name.
func (s NameSelector) Select(candidates []*gpu.Device) (*gpu.Device, error) {
	for _, d := range candidates {
		if d.Spec().Name == s.Name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: name %q", ErrNoDevice, s.Name)
}

// DefaultSelector picks the first available device, like
// sycl::default_selector_v.
type DefaultSelector struct{}

// Select returns the first candidate.
func (DefaultSelector) Select(candidates []*gpu.Device) (*gpu.Device, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: default_selector with no devices", ErrNoDevice)
	}
	return candidates[0], nil
}

// AsyncError is an asynchronous SYCL exception: an error raised by a
// command group after Submit returned, surfaced on the event, on
// Queue.Wait, and — when one is installed — through the queue's async
// handler. It is the simulator's sycl::exception for the async_handler
// path the paper contrasts with OpenCL's per-call error codes.
type AsyncError struct {
	// Op names the command group that failed (the kernel name, or the
	// copy/alloc operation).
	Op string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *AsyncError) Error() string {
	return fmt.Sprintf("sycl: async exception in %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *AsyncError) Unwrap() error { return e.Err }

// AsyncHandler receives asynchronous exceptions, mirroring the
// sycl::async_handler a queue is constructed with. Handlers run on the
// command group's completion goroutine and must be safe for concurrent
// calls.
type AsyncHandler func(*AsyncError)

// Queue encapsulates a device command queue — step 2 of the SYCL column of
// Table I. Command groups submitted to it execute asynchronously, ordered
// only by their buffer access dependencies.
type Queue struct {
	dev *gpu.Device

	mu      sync.Mutex
	events  []*Event
	handler AsyncHandler
}

// SetAsyncHandler installs the queue's asynchronous exception handler.
// Every command-group error raised after Submit returns is delivered to it
// (in addition to surfacing on the event and Queue.Wait), the way a SYCL
// runtime invokes the async_handler at wait_and_throw points.
func (q *Queue) SetAsyncHandler(h AsyncHandler) {
	q.mu.Lock()
	q.handler = h
	q.mu.Unlock()
}

// deliverAsync routes a command-group error to the installed handler,
// marking the delivery on the device's trace track.
func (q *Queue) deliverAsync(op string, err error) {
	q.mu.Lock()
	h := q.handler
	q.mu.Unlock()
	if h == nil || err == nil {
		return
	}
	ae, ok := err.(*AsyncError)
	if !ok {
		ae = &AsyncError{Op: op, Err: err}
	}
	q.dev.Instant("async-exception", obs.Attr{Key: "op", Value: ae.Op})
	h(ae)
}

// NewQueue selects a device from the candidates and builds a queue for it.
func NewQueue(sel DeviceSelector, candidates ...*gpu.Device) (*Queue, error) {
	if sel == nil {
		sel = DefaultSelector{}
	}
	dev, err := sel.Select(candidates)
	if err != nil {
		return nil, err
	}
	return &Queue{dev: dev}, nil
}

// Device returns the queue's device.
func (q *Queue) Device() *gpu.Device { return q.dev }

// Wait blocks until every command group submitted so far has completed,
// returning the first error encountered (queue::wait_and_throw).
func (q *Queue) Wait() error {
	q.mu.Lock()
	events := make([]*Event, len(q.events))
	copy(events, q.events)
	q.mu.Unlock()
	var first error
	for _, e := range events {
		if err := e.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Event tracks the completion of one command group — the SYCL event class
// of Table I.
type Event struct {
	done  chan struct{}
	err   error
	stats *gpu.Stats
}

func newEvent() *Event { return &Event{done: make(chan struct{})} }

func (e *Event) complete(stats *gpu.Stats, err error) {
	e.stats = stats
	e.err = err
	close(e.done)
}

// Wait blocks until the command group completes and returns its error.
// Asynchronous errors surface here, modelling SYCL's async handler.
func (e *Event) Wait() error {
	<-e.done
	return e.err
}

// Stats returns the launch statistics of a kernel command group (nil for
// copies), after the event completes.
func (e *Event) Stats() *gpu.Stats {
	<-e.done
	return e.stats
}
