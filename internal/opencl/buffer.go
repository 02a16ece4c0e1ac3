package opencl

import (
	"fmt"
	"reflect"
	"sync"

	"casoffinder/internal/gpu"
)

// MemFlags control buffer allocation, as in clCreateBuffer.
type MemFlags int

// Memory flags. MemUseConstant is the simulator's stand-in for placing a
// buffer behind the __constant address space.
const (
	MemReadWrite MemFlags = 1 << iota
	MemReadOnly
	MemWriteOnly
	MemCopyHostPtr
	MemUseConstant
)

// Mem is an OpenCL memory object — step 5 of Table I. It is created with an
// explicit size, optionally initialised from host memory, and must be
// released explicitly with Release (Table II: clReleaseMemObject), unlike a
// SYCL buffer whose storage the runtime reclaims.
type Mem struct {
	ctx   *Context
	alloc *gpu.Allocation

	mu       sync.Mutex
	data     storage // nil once released
	released bool
}

// storage is a memory object's device-side slice with its element type
// erased, so Release can hand it back to the device's pool.
type storage interface{ recycle(d *gpu.Device) }

// slab is the []T storage of a memory object of element type T.
type slab[T any] []T

func (s slab[T]) recycle(d *gpu.Device) { gpu.Recycle(d, []T(s)) }

// CreateBuffer allocates a device buffer of n elements of type T
// (clCreateBuffer with size n*sizeof(T)). With MemCopyHostPtr, host provides
// the initial contents and must hold at least n elements; otherwise host is
// ignored and the buffer starts zeroed. Storage comes from the device's
// pool and goes back to it at Release.
func CreateBuffer[T any](ctx *Context, flags MemFlags, n int, host []T) (*Mem, error) {
	if err := ctx.use(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("opencl: negative buffer length %d", n)
	}
	var zero T
	elemSize := int(reflect.TypeOf(zero).Size())
	kind := gpu.GlobalMem
	if flags&MemUseConstant != 0 {
		kind = gpu.ConstantMem
	}
	dev := ctx.devices[0].sim
	alloc, err := dev.Alloc(kind, int64(n)*int64(elemSize))
	if err != nil {
		return nil, fmt.Errorf("opencl: clCreateBuffer: %w", err)
	}
	var data []T
	if flags&MemCopyHostPtr != 0 {
		if len(host) < n {
			_ = alloc.Free()
			return nil, fmt.Errorf("%w: host has %d elements, buffer needs %d",
				ErrInvalidBufferRange, len(host), n)
		}
		data = gpu.TakeCopy(dev, host[:n])
	} else {
		data = gpu.Take[T](dev, n)
	}
	return &Mem{ctx: ctx, alloc: alloc, data: slab[T](data)}, nil
}

func (m *Mem) use() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.useLocked()
}

func (m *Mem) useLocked() error {
	if m.released {
		return fmt.Errorf("mem object: %w", ErrReleased)
	}
	return m.alloc.Use()
}

// Release frees the device allocation — clReleaseMemObject in Table II —
// and returns the storage to the device's pool. Double release is an error,
// as in OpenCL, and returns nothing twice.
func (m *Mem) Release() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.released {
		return fmt.Errorf("mem object: %w", ErrReleased)
	}
	m.released = true
	m.data.recycle(m.alloc.Device())
	m.data = nil
	return m.alloc.Free()
}

// Slice returns the device-side storage of m as a []T. Kernel builders use
// it to bind buffer arguments; the type must match the creation type.
func Slice[T any](m *Mem) ([]T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.useLocked(); err != nil {
		return nil, err
	}
	s, ok := m.data.(slab[T])
	if !ok {
		var zero T
		return nil, fmt.Errorf("opencl: buffer does not hold []%T", zero)
	}
	return s, nil
}
