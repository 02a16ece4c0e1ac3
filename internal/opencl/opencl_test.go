package opencl

import (
	"errors"
	"strings"
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

// vecScaleSource is a toy program used by the frontend tests: out[i] =
// in[i] * scale, with a __local staging buffer to exercise the LocalArg
// path and a barrier, mirroring the structure of the application kernels.
func vecScaleSource() Source {
	return Source{
		"vec_scale": {
			NumArgs: 4,
			BuildPhases: func(args []any) (gpu.PhaseKernel, error) {
				in, err := Slice[int32](args[0].(*Mem))
				if err != nil {
					return nil, err
				}
				out, err := Slice[int32](args[1].(*Mem))
				if err != nil {
					return nil, err
				}
				scale, ok := args[2].(int32)
				if !ok {
					return nil, errors.New("arg 2 must be int32")
				}
				local, ok := args[3].(gpu.LocalArg)
				if !ok {
					return nil, errors.New("arg 3 must be __local")
				}
				return func() []gpu.Phase {
					staging := make([]int32, local.Bytes/4)
					stage := func(it *gpu.Item) {
						if gid := it.GlobalID(0); gid < len(in) {
							staging[it.LocalID(0)] = in[gid]
							it.LoadGlobal(4)
							it.StoreLocal()
						}
					}
					scaleOut := func(it *gpu.Item) {
						if gid := it.GlobalID(0); gid < len(out) {
							out[gid] = staging[it.LocalID(0)] * scale
							it.LoadLocal()
							it.StoreGlobal(4)
						}
					}
					return []gpu.Phase{
						func(g *gpu.Group) { g.Each(stage) },
						func(g *gpu.Group) { g.Each(scaleOut) }, // after the barrier
					}
				}, nil
			},
		},
	}
}

// setup runs Table I steps 1-8 and returns the live objects.
func setup(t *testing.T) (*Context, *CommandQueue, *Kernel) {
	t.Helper()
	platform := NewPlatform("ROCm", "AMD", gpu.New(device.MI60(), gpu.WithWorkers(4)))
	devs, err := platform.GetDevices(DeviceTypeGPU)
	if err != nil {
		t.Fatalf("GetDevices: %v", err)
	}
	ctx, err := CreateContext(devs...)
	if err != nil {
		t.Fatalf("CreateContext: %v", err)
	}
	q, err := ctx.CreateCommandQueue(devs[0])
	if err != nil {
		t.Fatalf("CreateCommandQueue: %v", err)
	}
	prog, err := ctx.CreateProgramWithSource(vecScaleSource())
	if err != nil {
		t.Fatalf("CreateProgramWithSource: %v", err)
	}
	if err := prog.Build("-O3"); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := prog.BuildOptions(); got != "-O3" {
		t.Errorf("BuildOptions = %q", got)
	}
	k, err := prog.CreateKernel("vec_scale")
	if err != nil {
		t.Fatalf("CreateKernel: %v", err)
	}
	t.Cleanup(func() {
		_ = k.Release()
		_ = prog.Release()
		_ = q.Release()
		_ = ctx.Release()
	})
	return ctx, q, k
}

// TestThirteenStepLifecycle drives the full OpenCL programming sequence of
// Table I end to end.
func TestThirteenStepLifecycle(t *testing.T) {
	ctx, q, k := setup(t)

	const n = 1024
	host := make([]int32, n)
	for i := range host {
		host[i] = int32(i)
	}
	in, err := CreateBuffer(ctx, MemReadOnly|MemCopyHostPtr, n, host)
	if err != nil {
		t.Fatalf("CreateBuffer(in): %v", err)
	}
	out, err := CreateBuffer[int32](ctx, MemWriteOnly, n, nil)
	if err != nil {
		t.Fatalf("CreateBuffer(out): %v", err)
	}

	if err := k.SetArg(0, in); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, out); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(2, int32(3)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgLocal(3, 256*4); err != nil {
		t.Fatal(err)
	}

	ev, err := q.EnqueueNDRangeKernel(k, n, 256)
	if err != nil {
		t.Fatalf("EnqueueNDRangeKernel: %v", err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatalf("Event.Wait: %v", err)
	}
	if ev.KernelName() != "vec_scale" {
		t.Errorf("KernelName = %q", ev.KernelName())
	}
	if ev.Stats() == nil || ev.Stats().WorkItems != n {
		t.Errorf("kernel event stats = %+v", ev.Stats())
	}

	got := make([]int32, n)
	if _, err := EnqueueReadBuffer(q, out, true, 0, n, got); err != nil {
		t.Fatalf("EnqueueReadBuffer: %v", err)
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for i, v := range got {
		if v != int32(i*3) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}

	if err := in.Release(); err != nil {
		t.Fatal(err)
	}
	if err := out.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeChosenLocalSize(t *testing.T) {
	tests := []struct{ global, want int }{
		{1024, 64},
		{64, 64},
		{96, 32},
		{100, 4},
		{7, 1},
		{62, 2},
	}
	for _, tt := range tests {
		if got := defaultLocalSize(tt.global); got != tt.want {
			t.Errorf("defaultLocalSize(%d) = %d, want %d", tt.global, got, tt.want)
		}
	}
}

func TestEnqueueWithRuntimeLocalSize(t *testing.T) {
	ctx, q, k := setup(t)
	const n = 512
	in, _ := CreateBuffer[int32](ctx, MemReadOnly, n, nil)
	out, _ := CreateBuffer[int32](ctx, MemWriteOnly, n, nil)
	for i, arg := range []any{in, out, int32(1)} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SetArgLocal(3, 64*4); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueNDRangeKernel(k, n, 0) // runtime picks
	if err != nil {
		t.Fatalf("EnqueueNDRangeKernel: %v", err)
	}
	if got := ev.Stats().WorkGroups; got != n/64 {
		t.Errorf("runtime local size produced %d groups, want %d", got, n/64)
	}
}

func TestWriteBufferRoundTrip(t *testing.T) {
	ctx, q, _ := setup(t)
	buf, err := CreateBuffer[uint16](ctx, MemReadWrite, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := []uint16{7, 8, 9}
	if _, err := EnqueueWriteBuffer(q, buf, true, 4, 3, src); err != nil {
		t.Fatalf("EnqueueWriteBuffer: %v", err)
	}
	dst := make([]uint16, 5)
	if _, err := EnqueueReadBuffer(q, buf, true, 3, 5, dst); err != nil {
		t.Fatalf("EnqueueReadBuffer: %v", err)
	}
	want := []uint16{0, 7, 8, 9, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestTransferRangeErrors(t *testing.T) {
	ctx, q, _ := setup(t)
	buf, _ := CreateBuffer[int32](ctx, MemReadWrite, 8, nil)
	dst := make([]int32, 8)
	if _, err := EnqueueReadBuffer(q, buf, true, 4, 8, dst); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("out-of-range read error = %v", err)
	}
	if _, err := EnqueueReadBuffer(q, buf, true, 0, 8, dst[:2]); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("short-destination read error = %v", err)
	}
	if _, err := EnqueueWriteBuffer(q, buf, true, -1, 2, dst); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("negative-offset write error = %v", err)
	}
	if _, err := EnqueueWriteBuffer(q, buf, true, 0, 5, dst[:1]); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("short-source write error = %v", err)
	}
}

func TestBufferTypeMismatch(t *testing.T) {
	ctx, q, _ := setup(t)
	buf, _ := CreateBuffer[int32](ctx, MemReadWrite, 4, nil)
	dst := make([]int64, 4)
	if _, err := EnqueueReadBuffer(q, buf, true, 0, 4, dst); err == nil {
		t.Error("type-mismatched read = nil error")
	}
}

func TestUseAfterRelease(t *testing.T) {
	ctx, q, k := setup(t)
	buf, _ := CreateBuffer[int32](ctx, MemReadWrite, 4, nil)
	if err := buf.Release(); err != nil {
		t.Fatal(err)
	}
	if err := buf.Release(); !errors.Is(err, ErrReleased) {
		t.Errorf("double release = %v, want ErrReleased", err)
	}
	if err := k.SetArg(0, buf); !errors.Is(err, ErrReleased) {
		t.Errorf("SetArg(released buffer) = %v, want ErrReleased", err)
	}
	dst := make([]int32, 4)
	if _, err := EnqueueReadBuffer(q, buf, true, 0, 4, dst); !errors.Is(err, ErrReleased) {
		t.Errorf("read from released buffer = %v, want ErrReleased", err)
	}
}

func TestKernelArgErrors(t *testing.T) {
	ctx, q, k := setup(t)
	if err := k.SetArg(99, int32(0)); !errors.Is(err, ErrInvalidArgIndex) {
		t.Errorf("SetArg(99) = %v, want ErrInvalidArgIndex", err)
	}
	if err := k.SetArg(-1, int32(0)); !errors.Is(err, ErrInvalidArgIndex) {
		t.Errorf("SetArg(-1) = %v, want ErrInvalidArgIndex", err)
	}
	if err := k.SetArgLocal(3, 0); err == nil {
		t.Error("SetArgLocal(0 bytes) = nil error")
	}
	// Enqueue with unset args must fail.
	buf, _ := CreateBuffer[int32](ctx, MemReadWrite, 64, nil)
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, 64, 64); !errors.Is(err, ErrArgNotSet) {
		t.Errorf("enqueue with unset args = %v, want ErrArgNotSet", err)
	}
}

func TestProgramLifecycleErrors(t *testing.T) {
	platform := NewPlatform("ROCm", "AMD", gpu.New(device.MI60()))
	devs, _ := platform.GetDevices(DeviceTypeAll)
	ctx, _ := CreateContext(devs...)

	if _, err := ctx.CreateProgramWithSource(nil); err == nil {
		t.Error("empty source = nil error")
	}
	prog, err := ctx.CreateProgramWithSource(vecScaleSource())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.CreateKernel("vec_scale"); !errors.Is(err, ErrProgramNotBuilt) {
		t.Errorf("CreateKernel before Build = %v, want ErrProgramNotBuilt", err)
	}
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.CreateKernel("no_such_kernel"); !errors.Is(err, ErrKernelNotFound) {
		t.Errorf("CreateKernel(unknown) = %v, want ErrKernelNotFound", err)
	}
}

func TestPlatformQueries(t *testing.T) {
	p := NewPlatform("ROCm", "AMD", gpu.New(device.RadeonVII()))
	if p.Name() != "ROCm" || p.Vendor() != "AMD" {
		t.Error("platform identity wrong")
	}
	if _, err := p.GetDevices(DeviceTypeCPU); !errors.Is(err, ErrDeviceNotFound) {
		t.Errorf("GetDevices(CPU) = %v, want ErrDeviceNotFound", err)
	}
	devs, err := p.GetDevices(DeviceTypeGPU)
	if err != nil || len(devs) != 1 {
		t.Fatalf("GetDevices(GPU) = %v, %v", devs, err)
	}
	if devs[0].Name() != "RVII" {
		t.Errorf("device name = %q", devs[0].Name())
	}
}

func TestContextErrors(t *testing.T) {
	if _, err := CreateContext(); !errors.Is(err, ErrDeviceNotFound) {
		t.Errorf("CreateContext() = %v, want ErrDeviceNotFound", err)
	}
	p := NewPlatform("ROCm", "AMD", gpu.New(device.MI100()), gpu.New(device.MI60()))
	devs, _ := p.GetDevices(DeviceTypeGPU)
	ctx, _ := CreateContext(devs[0])
	if _, err := ctx.CreateCommandQueue(devs[1]); !errors.Is(err, ErrDeviceNotFound) {
		t.Errorf("queue on foreign device = %v, want ErrDeviceNotFound", err)
	}
	if err := ctx.Release(); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Release(); !errors.Is(err, ErrReleased) {
		t.Errorf("double context release = %v, want ErrReleased", err)
	}
	if _, err := ctx.CreateCommandQueue(devs[0]); !errors.Is(err, ErrReleased) {
		t.Errorf("queue on released context = %v, want ErrReleased", err)
	}
	if _, err := CreateBuffer[int32](ctx, MemReadWrite, 4, nil); !errors.Is(err, ErrReleased) {
		t.Errorf("buffer on released context = %v, want ErrReleased", err)
	}
}

func TestQueueRelease(t *testing.T) {
	_, q, k := setup(t)
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); !errors.Is(err, ErrReleased) {
		t.Errorf("Finish on released queue = %v, want ErrReleased", err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, 64, 64); !errors.Is(err, ErrReleased) {
		t.Errorf("enqueue on released queue = %v, want ErrReleased", err)
	}
}

func TestDeviceOOMBuffer(t *testing.T) {
	ctx, _, _ := setup(t) // MI60: 32 GiB
	if _, err := CreateBuffer[int64](ctx, MemReadWrite, 1<<33, nil); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Errorf("64 GiB buffer = %v, want ErrOutOfMemory", err)
	}
}

func TestConstantBufferKind(t *testing.T) {
	ctx, _, _ := setup(t)
	buf, err := CreateBuffer[byte](ctx, MemReadOnly|MemUseConstant|MemCopyHostPtr, 4, []byte("ACGT"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Slice[byte](buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "ACGT" {
		t.Errorf("constant buffer content = %q", data)
	}
	if buf.Flags()&MemUseConstant == 0 {
		t.Error("flags lost")
	}
}

func TestCreateBufferHostTooShort(t *testing.T) {
	ctx, _, _ := setup(t)
	if _, err := CreateBuffer(ctx, MemCopyHostPtr, 10, []int32{1, 2}); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("short host = %v, want ErrInvalidBufferRange", err)
	}
	if _, err := CreateBuffer[int32](ctx, MemReadWrite, -1, nil); err == nil {
		t.Error("negative length = nil error")
	}
}

func TestProgrammingStepCounts(t *testing.T) {
	if got := len(ProgrammingSteps()); got != 13 {
		t.Errorf("OpenCL steps = %d, want 13 (Table I)", got)
	}
}

func TestEnqueueCopyBuffer(t *testing.T) {
	ctx, q, _ := setup(t)
	src, _ := CreateBuffer(ctx, MemCopyHostPtr, 6, []int32{1, 2, 3, 4, 5, 6})
	dst, _ := CreateBuffer[int32](ctx, MemReadWrite, 6, nil)
	if _, err := EnqueueCopyBuffer[int32](q, src, dst, 2, 1, 3); err != nil {
		t.Fatalf("EnqueueCopyBuffer: %v", err)
	}
	got := make([]int32, 6)
	if _, err := EnqueueReadBuffer(q, dst, true, 0, 6, got); err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 3, 4, 5, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dst[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Range errors.
	if _, err := EnqueueCopyBuffer[int32](q, src, dst, 5, 0, 3); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("source overflow = %v", err)
	}
	if _, err := EnqueueCopyBuffer[int32](q, src, dst, 0, 5, 3); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("destination overflow = %v", err)
	}
}

func TestEnqueueFillBuffer(t *testing.T) {
	ctx, q, _ := setup(t)
	buf, _ := CreateBuffer[uint16](ctx, MemReadWrite, 8, nil)
	if _, err := EnqueueFillBuffer(q, buf, uint16(9), 2, 4); err != nil {
		t.Fatalf("EnqueueFillBuffer: %v", err)
	}
	got := make([]uint16, 8)
	if _, err := EnqueueReadBuffer(q, buf, true, 0, 8, got); err != nil {
		t.Fatal(err)
	}
	want := []uint16{0, 0, 9, 9, 9, 9, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("buf[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := EnqueueFillBuffer(q, buf, uint16(1), 6, 4); !errors.Is(err, ErrInvalidBufferRange) {
		t.Errorf("fill overflow = %v", err)
	}
}

func TestAccessors(t *testing.T) {
	p := NewPlatform("ROCm", "AMD", gpu.New(device.MI60()))
	devs, _ := p.GetDevices(DeviceTypeGPU)
	if devs[0].Sim() == nil {
		t.Error("Device.Sim nil")
	}
	ctx, _ := CreateContext(devs...)
	if len(ctx.Devices()) != 1 {
		t.Error("Context.Devices")
	}
	q, _ := ctx.CreateCommandQueue(devs[0])
	if q.Device() != devs[0] {
		t.Error("CommandQueue.Device")
	}
	buf, _ := CreateBuffer[int32](ctx, MemReadWrite, 8, nil)
	if buf.Len() != 8 || buf.SizeBytes() != 32 {
		t.Errorf("buffer size accessors: %d / %d", buf.Len(), buf.SizeBytes())
	}
	prog, _ := ctx.CreateProgramWithSource(vecScaleSource())
	_ = prog.Build("")
	k, _ := prog.CreateKernel("vec_scale")
	if k.Name() != "vec_scale" {
		t.Error("Kernel.Name")
	}
}

// TestPhaseKernelErrorsSurfaceOnEnqueue: a kernel whose builder is missing
// or fails, whose phase kernel is mis-shaped — no phase, a nil phase — or
// that panics in its factory or in a group, comes back from the enqueue as
// an error naming the kernel.
func TestPhaseKernelErrorsSurfaceOnEnqueue(t *testing.T) {
	nop := func(g *gpu.Group) {}
	kernel := func(k gpu.PhaseKernel) KernelBuilder {
		return KernelBuilder{BuildPhases: func([]any) (gpu.PhaseKernel, error) { return k, nil }}
	}
	src := Source{
		"no_builder":   {},
		"build_fails":  {BuildPhases: func([]any) (gpu.PhaseKernel, error) { return nil, errors.New("bad args") }},
		"no_phases":    kernel(func() []gpu.Phase { return nil }),
		"nil_phase":    kernel(func() []gpu.Phase { return []gpu.Phase{nop, nil} }),
		"phase_panics": kernel(func() []gpu.Phase { return []gpu.Phase{func(g *gpu.Group) { panic("boom") }} }),
		"panics":       kernel(func() []gpu.Phase { panic("no kernel") }),
	}
	want := map[string]string{
		"no_builder": "no kernel builder", "build_fails": "bad args", "no_phases": "no phases",
		"nil_phase": "nil phase", "phase_panics": "panicked: boom", "panics": "panicked: no kernel",
	}
	ctx, q, _ := setup(t)
	prog, err := ctx.CreateProgramWithSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	for name := range src {
		k, err := prog.CreateKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = q.EnqueueNDRangeKernel(k, 64*64, 64)
		if err == nil || !strings.Contains(err.Error(), want[name]) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: enqueue = %v, want an error naming the kernel and %q", name, err, want[name])
		}
	}
}
