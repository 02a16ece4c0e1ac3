package gpu

import (
	"fmt"
	"sync"
)

// MemKind distinguishes the address spaces of the abstract memory model.
type MemKind int

// Address spaces, following the paper's Fig. 1.
const (
	// GlobalMem is device global memory, visible to all work-items.
	GlobalMem MemKind = iota + 1
	// ConstantMem stores values constant across work-items.
	ConstantMem
)

// Allocation is one region of simulated device memory. The simulator tracks
// only sizes and lifetimes — the actual data lives in ordinary Go slices the
// runtime frontends take from the device's pool (Take, Recycle) — but
// allocations enforce the device global-memory budget and catch
// use-after-release.
type Allocation struct {
	dev   *Device
	kind  MemKind
	bytes int64
	freed bool
	mu    sync.Mutex
}

// Bytes returns the allocation size.
func (a *Allocation) Bytes() int64 { return a.bytes }

// Device returns the device the allocation was reserved on; the runtime
// frontends use it to reach the device's fault injector at readback time.
func (a *Allocation) Device() *Device { return a.dev }

// Kind returns the address space of the allocation.
func (a *Allocation) Kind() MemKind { return a.kind }

// released reports whether Free has been called.
func (a *Allocation) released() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freed
}

// Use marks the allocation as touched by a command; it fails after Free,
// modelling the OpenCL use-after-clReleaseMemObject error.
func (a *Allocation) Use() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.freed {
		return fmt.Errorf("%w (%d bytes)", ErrFreed, a.bytes)
	}
	return nil
}

// Free returns the allocation's bytes to the device budget. Freeing twice is
// an error, matching CL_INVALID_MEM_OBJECT from a double release.
func (a *Allocation) Free() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.freed {
		return fmt.Errorf("%w: double free of %d bytes", ErrFreed, a.bytes)
	}
	a.freed = true
	a.dev.release(a.bytes)
	return nil
}

// Alloc reserves bytes of device memory of the given kind. It fails with
// ErrOutOfMemory when the request exceeds the remaining device budget,
// modelling CL_MEM_OBJECT_ALLOCATION_FAILURE.
func (d *Device) Alloc(kind MemKind, bytes int64) (*Allocation, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("gpu: negative allocation size %d", bytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocated+bytes > d.spec.GlobalMemBytes {
		return nil, fmt.Errorf("%w: %d requested, %d of %d in use",
			ErrOutOfMemory, bytes, d.allocated, d.spec.GlobalMemBytes)
	}
	d.allocated += bytes
	return &Allocation{dev: d, kind: kind, bytes: bytes}, nil
}

func (d *Device) release(bytes int64) {
	d.mu.Lock()
	d.allocated -= bytes
	d.mu.Unlock()
}

// AllocatedBytes returns the bytes currently reserved on the device.
func (d *Device) AllocatedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}
