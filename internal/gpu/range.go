// Package gpu implements the functional execution-model simulator that
// stands in for an OpenCL/SYCL device in this reproduction (see DESIGN.md).
//
// The model follows the paper's §II.B abstract memory model: a kernel runs
// as many work-items organised into work-groups over an N-dimensional range;
// work-items in a group share a low-latency local memory and synchronise
// with barriers; all work-items see a device global memory and a read-only
// constant memory; atomics serialise concurrent updates to a location.
//
// Kernels are Go closures under one launch contract: a launch supplies a
// PhaseKernel, a factory invoked once per host worker that returns the
// kernel body split at its barriers into phases, each called once per
// work-group. Variables the factory creates play the role of shared local
// memory, and the boundary between two phases is the work-group barrier.
// Groups are distributed over a host worker pool. Every launch produces a
// Stats record of the memory traffic and instruction mix the timing model
// consumes.
package gpu

import (
	"errors"
	"fmt"
)

// MaxDims is the maximum ND-range dimensionality, as in OpenCL and SYCL.
const MaxDims = 3

// Range is the size of an ND-range or work-group in up to three dimensions.
// The zero value is invalid; construct with R1, R2 or R3.
type Range struct {
	dims  int
	sizes [MaxDims]int
}

// R1 returns a one-dimensional range.
func R1(x int) Range { return Range{dims: 1, sizes: [MaxDims]int{x, 1, 1}} }

// R2 returns a two-dimensional range.
func R2(x, y int) Range { return Range{dims: 2, sizes: [MaxDims]int{x, y, 1}} }

// R3 returns a three-dimensional range.
func R3(x, y, z int) Range { return Range{dims: 3, sizes: [MaxDims]int{x, y, z}} }

// Dims returns the dimensionality (1, 2 or 3; 0 for the zero value).
func (r Range) Dims() int { return r.dims }

// Size returns the extent in dimension d, or 1 beyond the range's
// dimensionality (matching get_global_size semantics).
func (r Range) Size(d int) int {
	if d < 0 || d >= MaxDims {
		return 1
	}
	if d >= r.dims {
		return 1
	}
	return r.sizes[d]
}

// Total returns the product of all extents.
func (r Range) Total() int {
	if r.dims == 0 {
		return 0
	}
	t := 1
	for d := 0; d < r.dims; d++ {
		t *= r.sizes[d]
	}
	return t
}

func (r Range) String() string {
	switch r.dims {
	case 1:
		return fmt.Sprintf("{%d}", r.sizes[0])
	case 2:
		return fmt.Sprintf("{%d,%d}", r.sizes[0], r.sizes[1])
	case 3:
		return fmt.Sprintf("{%d,%d,%d}", r.sizes[0], r.sizes[1], r.sizes[2])
	default:
		return "{invalid}"
	}
}

// Errors reported by launch validation and the memory allocator.
var (
	// ErrInvalidRange marks a zero or negative ND-range.
	ErrInvalidRange = errors.New("gpu: invalid ND-range")
	// ErrLocalSize marks a local size that does not divide the global size
	// in some dimension (a SYCL nd_range requirement the paper quotes:
	// "work-groups whose size must divide the ND-Range size in each
	// dimension").
	ErrLocalSize = errors.New("gpu: local size does not divide global size")
	// ErrWorkGroupTooLarge marks a work-group beyond the device limit.
	ErrWorkGroupTooLarge = errors.New("gpu: work-group size exceeds device limit")
	// ErrOutOfMemory marks an allocation beyond the device global memory.
	ErrOutOfMemory = errors.New("gpu: out of device memory")
	// ErrFreed marks use of a released allocation.
	ErrFreed = errors.New("gpu: use of released allocation")
)

// checkNDRange validates a (global, local) pair against the device limits.
func checkNDRange(global, local Range, maxWG int) error {
	if global.Dims() == 0 || global.Total() <= 0 {
		return fmt.Errorf("%w: global %v", ErrInvalidRange, global)
	}
	if local.Dims() == 0 || local.Total() <= 0 {
		return fmt.Errorf("%w: local %v", ErrInvalidRange, local)
	}
	if global.Dims() != local.Dims() {
		return fmt.Errorf("%w: global %v and local %v differ in dimensionality",
			ErrInvalidRange, global, local)
	}
	for d := 0; d < global.Dims(); d++ {
		if global.Size(d) <= 0 || local.Size(d) <= 0 {
			return fmt.Errorf("%w: non-positive extent in dimension %d", ErrInvalidRange, d)
		}
		if global.Size(d)%local.Size(d) != 0 {
			return fmt.Errorf("%w: dimension %d: %d %% %d != 0",
				ErrLocalSize, d, global.Size(d), local.Size(d))
		}
	}
	if local.Total() > maxWG {
		return fmt.Errorf("%w: %d > %d", ErrWorkGroupTooLarge, local.Total(), maxWG)
	}
	return nil
}
