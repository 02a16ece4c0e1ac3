package opencl

import (
	"context"
	"fmt"
	"sync"

	"casoffinder/internal/gpu"
)

// KernelBuilder turns bound argument slots into an executable kernel.
// Arguments arrive in slot order exactly as SetArg bound them: *Mem for
// global/constant buffers, gpu.LocalArg for __local declarations, and plain
// Go values for by-value scalars. Builders live beside the kernel bodies in
// internal/kernels.
type KernelBuilder struct {
	// NumArgs is the number of argument slots the kernel declares.
	NumArgs int
	// BuildPhases validates the bound arguments and returns the kernel
	// split at its barrier points. It is the simulator's stand-in for a
	// compiler that statically resolves the kernel's barrier structure.
	BuildPhases func(args []any) (gpu.PhaseKernel, error)
}

// Source is the program "source code": a registry of kernel builders,
// playing the role of the OpenCL C source string passed to
// clCreateProgramWithSource.
type Source map[string]KernelBuilder

// Program is an OpenCL program object — steps 6 and 7 of Table I. It must
// be built before kernels can be created from it.
type Program struct {
	ctx    *Context
	source Source

	mu       sync.Mutex
	built    bool
	options  string
	released bool
}

// CreateProgramWithSource creates a program from a kernel registry
// (clCreateProgramWithSource).
func (c *Context) CreateProgramWithSource(source Source) (*Program, error) {
	if err := c.use(); err != nil {
		return nil, err
	}
	if len(source) == 0 {
		return nil, fmt.Errorf("opencl: empty program source")
	}
	return &Program{ctx: c, source: source}, nil
}

// Build compiles the program (clBuildProgram). The options string is
// recorded for inspection; the paper builds with "-O3".
func (p *Program) Build(options string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		return fmt.Errorf("program: %w", ErrReleased)
	}
	p.built = true
	p.options = options
	return nil
}

// BuildOptions returns the options passed to Build.
func (p *Program) BuildOptions() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.options
}

// Release releases the program object.
func (p *Program) Release() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		return fmt.Errorf("program: %w", ErrReleased)
	}
	p.released = true
	return nil
}

// CreateKernel creates a kernel object from a built program — step 8 of
// Table I (clCreateKernel).
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		return nil, fmt.Errorf("program: %w", ErrReleased)
	}
	if !p.built {
		return nil, fmt.Errorf("%w: call Build before CreateKernel(%q)", ErrProgramNotBuilt, name)
	}
	b, ok := p.source[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrKernelNotFound, name)
	}
	return &Kernel{
		name:    name,
		builder: b,
		args:    make([]any, b.NumArgs),
		argSet:  make([]bool, b.NumArgs),
	}, nil
}

// Kernel is an OpenCL kernel object with explicit argument slots — steps 8
// and 9 of Table I. Arguments must all be set before the kernel is enqueued,
// mirroring clSetKernelArg followed by clEnqueueNDRangeKernel in Table VI.
type Kernel struct {
	name    string
	builder KernelBuilder

	mu       sync.Mutex
	args     []any
	argSet   []bool
	released bool
}

// Name returns the kernel name.
func (k *Kernel) Name() string { return k.name }

// SetArg binds a buffer or scalar value to an argument slot
// (clSetKernelArg). Buffers are passed as *Mem; scalars by value.
func (k *Kernel) SetArg(index int, value any) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.released {
		return fmt.Errorf("kernel %s: %w", k.name, ErrReleased)
	}
	if index < 0 || index >= len(k.args) {
		return fmt.Errorf("%w: %d of %d for kernel %s", ErrInvalidArgIndex, index, len(k.args), k.name)
	}
	if m, ok := value.(*Mem); ok {
		if err := m.use(); err != nil {
			return fmt.Errorf("kernel %s arg %d: %w", k.name, index, err)
		}
	}
	k.args[index] = value
	k.argSet[index] = true
	return nil
}

// SetArgLocal declares an argument slot as __local memory of the given byte
// size — clSetKernelArg(k, idx, bytes, NULL) in OpenCL.
func (k *Kernel) SetArgLocal(index int, bytes int) error {
	if bytes <= 0 {
		return fmt.Errorf("opencl: kernel %s arg %d: non-positive local size %d", k.name, index, bytes)
	}
	return k.SetArg(index, gpu.LocalArg{Bytes: bytes})
}

// Release releases the kernel object.
func (k *Kernel) Release() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.released {
		return fmt.Errorf("kernel %s: %w", k.name, ErrReleased)
	}
	k.released = true
	return nil
}

// launchSpec builds the kernel from its bound arguments into a launch spec.
func (k *Kernel) launchSpec(ctx context.Context, args []any, gws, lws, lds int) (gpu.LaunchSpec, error) {
	if k.builder.BuildPhases == nil {
		return gpu.LaunchSpec{}, fmt.Errorf("opencl: kernel %s: no kernel builder", k.name)
	}
	phases, err := k.builder.BuildPhases(args)
	if err != nil {
		return gpu.LaunchSpec{}, fmt.Errorf("opencl: kernel %s: %w", k.name, err)
	}
	return gpu.LaunchSpec{
		Name:          k.name,
		Global:        gpu.R1(gws),
		Local:         gpu.R1(lws),
		Phases:        phases,
		LDSBytesPerWG: lds,
		Ctx:           ctx,
	}, nil
}

// bind snapshots the argument slots for an enqueue, verifying completeness.
func (k *Kernel) bind() ([]any, int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.released {
		return nil, 0, fmt.Errorf("kernel %s: %w", k.name, ErrReleased)
	}
	lds := 0
	for i, set := range k.argSet {
		if !set {
			return nil, 0, fmt.Errorf("%w: kernel %s argument %d", ErrArgNotSet, k.name, i)
		}
		if l, ok := k.args[i].(gpu.LocalArg); ok {
			lds += l.Bytes
		}
	}
	args := make([]any, len(k.args))
	copy(args, k.args)
	return args, lds, nil
}
