// Package gpu implements the functional execution-model simulator that
// stands in for an OpenCL/SYCL device in this reproduction (see DESIGN.md).
//
// The model follows the paper's §II.B abstract memory model: a kernel runs
// as many work-items organised into work-groups over a one-dimensional
// ND-range (every kernel the paper launches is an nd_range<1>); work-items
// in a group share a low-latency local memory and synchronise with
// barriers; all work-items see a device global memory and a read-only
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

// Errors reported by launch validation and the memory allocator.
var (
	// ErrInvalidRange marks a zero or negative ND-range.
	ErrInvalidRange = errors.New("gpu: invalid ND-range")
	// ErrLocalSize marks a local size that does not divide the global size
	// (a SYCL nd_range requirement the paper quotes: "work-groups whose
	// size must divide the ND-Range size in each dimension").
	ErrLocalSize = errors.New("gpu: local size does not divide global size")
	// ErrWorkGroupTooLarge marks a work-group beyond the device limit.
	ErrWorkGroupTooLarge = errors.New("gpu: work-group size exceeds device limit")
	// ErrOutOfMemory marks an allocation beyond the device global memory.
	ErrOutOfMemory = errors.New("gpu: out of device memory")
	// ErrFreed marks use of a released allocation.
	ErrFreed = errors.New("gpu: use of released allocation")
)

// checkNDRange validates a (global, local) pair of work-item counts against
// the device limits.
func checkNDRange(global, local, maxWG int) error {
	if global <= 0 {
		return fmt.Errorf("%w: global %d", ErrInvalidRange, global)
	}
	if local <= 0 {
		return fmt.Errorf("%w: local %d", ErrInvalidRange, local)
	}
	if global%local != 0 {
		return fmt.Errorf("%w: %d %% %d != 0", ErrLocalSize, global, local)
	}
	if local > maxWG {
		return fmt.Errorf("%w: %d > %d", ErrWorkGroupTooLarge, local, maxWG)
	}
	return nil
}
