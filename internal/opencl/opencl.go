// Package opencl is an OpenCL-1.2-shaped host API over the execution-model
// simulator (internal/gpu). It reproduces the thirteen logical programming
// steps the paper's Table I attributes to an OpenCL program — platform
// query, device query, context and command-queue creation, memory objects,
// program build, kernel creation, argument binding, ND-range enqueue,
// device-to-host transfer, event handling, and explicit resource release —
// as the original application (internal/search's OpenCL engine) calls them,
// and nothing more. internal/bench's migration tables name, per Table I step
// and per row of Tables II–VI, the calls that implement it, and a
// type-checked test holds the two to each other. Host data reaches the
// device when a buffer is created (CreateBuffer with MemCopyHostPtr) and
// comes back through EnqueueReadBuffer.
//
// Kernels are not OpenCL C: a Program is built from a Source registry
// mapping kernel names to Go builder functions (see internal/kernels).
// Everything else — argument slots, __local sizes, runtime-chosen work-group
// sizes, release semantics — follows the OpenCL host model.
package opencl

import (
	"errors"
	"fmt"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
)

// Frontend errors, loosely mirroring OpenCL status codes.
var (
	// ErrReleased marks use of a released object (CL_INVALID_* after a
	// release).
	ErrReleased = errors.New("opencl: object has been released")
	// ErrDeviceNotFound mirrors CL_DEVICE_NOT_FOUND.
	ErrDeviceNotFound = errors.New("opencl: device not found")
	// ErrKernelNotFound mirrors CL_INVALID_KERNEL_NAME.
	ErrKernelNotFound = errors.New("opencl: kernel name not found in program")
	// ErrArgNotSet mirrors CL_INVALID_KERNEL_ARGS at enqueue time.
	ErrArgNotSet = errors.New("opencl: kernel argument not set")
	// ErrInvalidArgIndex mirrors CL_INVALID_ARG_INDEX.
	ErrInvalidArgIndex = errors.New("opencl: kernel argument index out of range")
	// ErrProgramNotBuilt mirrors CL_INVALID_PROGRAM_EXECUTABLE.
	ErrProgramNotBuilt = errors.New("opencl: program has not been built")
	// ErrInvalidBufferRange mirrors CL_INVALID_VALUE on buffer transfers.
	ErrInvalidBufferRange = errors.New("opencl: buffer transfer range out of bounds")
	// ErrEnqueueFailed mirrors a transient CL_OUT_OF_RESOURCES-style status
	// from clEnqueueNDRangeKernel; injected by the fault layer.
	ErrEnqueueFailed = errors.New("opencl: enqueue failed")
	// ErrTransferFailed mirrors a transient error status from
	// clEnqueueReadBuffer; injected by the fault layer.
	ErrTransferFailed = errors.New("opencl: buffer transfer failed")
	// ErrDeviceLost mirrors CL_DEVICE_NOT_AVAILABLE after a device loss: the
	// first occurrence poisons the owning context and every later call on it
	// repeats the error, as a real runtime behaves once the device is gone.
	ErrDeviceLost = errors.New("opencl: device lost")
)

// DeviceType selects devices in a platform query, as in clGetDeviceIDs.
// A simulated platform holds GPUs only.
type DeviceType int

// DeviceTypeGPU selects GPU devices (CL_DEVICE_TYPE_GPU).
const DeviceTypeGPU DeviceType = 1

// Platform is the root of the OpenCL object hierarchy — step 1 of Table I.
type Platform struct {
	name    string
	devices []*Device
}

// NewPlatform registers simulated devices under a platform, standing in for
// an installed OpenCL driver (the paper uses the ROCm 4.5.2 platform).
func NewPlatform(name string, sims ...*gpu.Device) *Platform {
	p := &Platform{name: name}
	for _, s := range sims {
		p.devices = append(p.devices, &Device{sim: s, typ: DeviceTypeGPU})
	}
	return p
}

// GetDevices returns the platform's devices of the requested type — step 2
// of Table I (clGetDeviceIDs).
func (p *Platform) GetDevices(t DeviceType) ([]*Device, error) {
	var out []*Device
	for _, d := range p.devices {
		if d.typ&t != 0 {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: type %#x on platform %s", ErrDeviceNotFound, int(t), p.name)
	}
	return out, nil
}

// Device is one OpenCL device handle.
type Device struct {
	sim *gpu.Device
	typ DeviceType
}

// Name returns the device name.
func (d *Device) Name() string { return d.sim.Spec().Name }

// Context owns memory objects, programs and queues — step 3 of Table I.
type Context struct {
	devices []*Device

	mu       sync.Mutex
	released bool
	lost     bool
}

// CreateContext creates a context for the given devices (clCreateContext).
func CreateContext(devices ...*Device) (*Context, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("%w: context needs at least one device", ErrDeviceNotFound)
	}
	return &Context{devices: devices}, nil
}

func (c *Context) use() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return fmt.Errorf("context: %w", ErrReleased)
	}
	if c.lost {
		return fault.Errorf(fault.SiteCLDeviceLost, fault.Fatal, "context: %w", ErrDeviceLost)
	}
	return nil
}

// markLost poisons the context after a device loss: every later use of the
// context, its queues or its memory objects fails with ErrDeviceLost.
// Release still works, so teardown of a lost context stays clean.
func (c *Context) markLost() {
	c.mu.Lock()
	c.lost = true
	c.mu.Unlock()
}

// faults returns the fault injector of the context's first device.
func (c *Context) faults() *fault.Injector {
	if len(c.devices) == 0 {
		return nil
	}
	return c.devices[0].sim.Faults()
}

// Release releases the context — part of step 13 of Table I. Releasing
// twice is an error.
func (c *Context) Release() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return fmt.Errorf("context: %w", ErrReleased)
	}
	c.released = true
	return nil
}
