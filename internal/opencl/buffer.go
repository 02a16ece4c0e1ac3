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
	data  any // []T device-side storage

	mu       sync.Mutex
	released bool
}

// CreateBuffer allocates a device buffer of n elements of type T
// (clCreateBuffer with size n*sizeof(T)). With MemCopyHostPtr, host provides
// the initial contents and must hold at least n elements; otherwise host is
// ignored and the buffer starts zeroed.
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
	alloc, err := ctx.devices[0].sim.Alloc(kind, int64(n)*int64(elemSize))
	if err != nil {
		return nil, fmt.Errorf("opencl: clCreateBuffer: %w", err)
	}
	data := make([]T, n)
	if flags&MemCopyHostPtr != 0 {
		if len(host) < n {
			_ = alloc.Free()
			return nil, fmt.Errorf("%w: host has %d elements, buffer needs %d",
				ErrInvalidBufferRange, len(host), n)
		}
		copy(data, host[:n])
	}
	return &Mem{ctx: ctx, alloc: alloc, data: data}, nil
}

func (m *Mem) use() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.released {
		return fmt.Errorf("mem object: %w", ErrReleased)
	}
	return m.alloc.Use()
}

// Release frees the device allocation — clReleaseMemObject in Table II.
// Double release is an error, as in OpenCL.
func (m *Mem) Release() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.released {
		return fmt.Errorf("mem object: %w", ErrReleased)
	}
	m.released = true
	return m.alloc.Free()
}

// Slice returns the device-side storage of m as a []T. Kernel builders use
// it to bind buffer arguments; the type must match the creation type.
func Slice[T any](m *Mem) ([]T, error) {
	if err := m.use(); err != nil {
		return nil, err
	}
	s, ok := m.data.([]T)
	if !ok {
		var zero T
		return nil, fmt.Errorf("opencl: buffer holds %T, not []%T", m.data, zero)
	}
	return s, nil
}
