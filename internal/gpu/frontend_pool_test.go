package gpu_test

import (
	"errors"
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/opencl"
	"casoffinder/internal/sycl"
)

// TestSYCLDestroyRecyclesOnce: a SYCL buffer hands its storage back at its
// first Destroy only, and a destroyed buffer takes no storage again.
func TestSYCLDestroyRecyclesOnce(t *testing.T) {
	d := gpu.New(device.MI100(), gpu.WithWorkers(2))
	q, err := sycl.NewQueue(sycl.GPUSelector{}, d)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sycl.NewBuffer[uint32](256)
	if err != nil {
		t.Fatal(err)
	}
	ev := q.Submit(nil, func(h *sycl.Handler) error {
		acc, err := sycl.Access(h, buf, sycl.Write)
		if err != nil {
			return err
		}
		out := acc.Slice()
		return h.ParallelForPhases("fill", 256, 64, func(*sycl.LocalMem) []gpu.Phase {
			return []gpu.Phase{func(g *gpu.Group) {
				for li := range g.Size() {
					out[g.Base()+li] = 1
				}
			}}
		})
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := buf.Destroy(); err != nil {
			t.Fatalf("Destroy #%d: %v", i+1, err)
		}
		if got := d.RetainedBytes(); got != 4*256 {
			t.Fatalf("after Destroy #%d the device retains %d bytes, want %d", i+1, got, 4*256)
		}
	}
	ev = q.Submit(nil, func(h *sycl.Handler) error {
		_, err := sycl.Access(h, buf, sycl.Read)
		return err
	})
	if err := ev.Wait(); !errors.Is(err, sycl.ErrBufferDestroyed) {
		t.Errorf("access after Destroy = %v, want ErrBufferDestroyed", err)
	}
	if got := d.RetainedBytes(); got != 4*256 {
		t.Errorf("a destroyed buffer took storage: the device retains %d bytes, want %d", got, 4*256)
	}
	if n := d.AllocatedBytes(); n != 0 {
		t.Errorf("device holds %d bytes after Destroy", n)
	}
}

// TestOpenCLReleaseRecyclesOnce: an OpenCL memory object hands its storage
// back at its one successful Release; the second Release is an error and
// returns nothing.
func TestOpenCLReleaseRecyclesOnce(t *testing.T) {
	d := gpu.New(device.MI100(), gpu.WithWorkers(2))
	devs, err := opencl.NewPlatform("sim", d).GetDevices(opencl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := opencl.CreateContext(devs...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := opencl.CreateBuffer(ctx, opencl.MemReadWrite|opencl.MemCopyHostPtr, 100, make([]uint16, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(); !errors.Is(err, opencl.ErrReleased) {
		t.Errorf("second Release = %v, want ErrReleased", err)
	}
	if got := d.RetainedBytes(); got != 2*100 {
		t.Errorf("after two Releases the device retains %d bytes, want %d", got, 2*100)
	}
	if _, err := opencl.Slice[uint16](m); !errors.Is(err, opencl.ErrReleased) {
		t.Errorf("Slice after Release = %v, want ErrReleased", err)
	}
	if n := d.AllocatedBytes(); n != 0 {
		t.Errorf("device holds %d bytes after Release", n)
	}
}
