package sycl

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

func newTestQueue(t *testing.T) *Queue {
	t.Helper()
	q, err := NewQueue(DefaultSelector{}, gpu.New(device.MI100(), gpu.WithWorkers(4)))
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	return q
}

func TestSelectors(t *testing.T) {
	rvii := gpu.New(device.RadeonVII())
	mi100 := gpu.New(device.MI100())
	devs := []*gpu.Device{rvii, mi100}

	got, err := (GPUSelector{}).Select(devs)
	if err != nil || got != mi100 {
		t.Errorf("GPUSelector picked %v, %v; want MI100 (most CUs)", got, err)
	}
	got, err = (DefaultSelector{}).Select(devs)
	if err != nil || got != rvii {
		t.Errorf("DefaultSelector picked %v, %v; want first", got, err)
	}
	got, err = (NameSelector{Name: "RVII"}).Select(devs)
	if err != nil || got != rvii {
		t.Errorf("NameSelector picked %v, %v", got, err)
	}
	if _, err := (NameSelector{Name: "H100"}).Select(devs); !errors.Is(err, ErrNoDevice) {
		t.Errorf("NameSelector(unknown) = %v, want ErrNoDevice", err)
	}
	if _, err := (GPUSelector{}).Select(nil); !errors.Is(err, ErrNoDevice) {
		t.Errorf("GPUSelector(none) = %v, want ErrNoDevice", err)
	}
	if _, err := NewQueue(nil); !errors.Is(err, ErrNoDevice) {
		t.Errorf("NewQueue(no devices) = %v, want ErrNoDevice", err)
	}
}

// TestSubmitParallelFor drives the SYCL side of Table VI: a buffer, a
// command group with accessors and a local accessor, a parallel_for over an
// nd_range — split at its barrier into two phases — and an event wait.
func TestSubmitParallelFor(t *testing.T) {
	q := newTestQueue(t)
	const n = 1024
	host := make([]int32, n)
	for i := range host {
		host[i] = int32(i)
	}
	in, err := NewBufferFrom(host)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewBuffer[int32](n)
	if err != nil {
		t.Fatal(err)
	}

	ev := q.Submit(func(h *Handler) error {
		inAcc, err := Access(h, in, Read)
		if err != nil {
			return err
		}
		outAcc, err := Access(h, out, Write)
		if err != nil {
			return err
		}
		staging, err := NewLocalAccessor[int32](h, 256)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("scale", gpu.R1(n), gpu.R1(256), func(m *LocalMem) []gpu.Phase {
			s := staging.Slice(m)
			return []gpu.Phase{
				func(g *gpu.Group) {
					g.Each(func(it *gpu.Item) { s[it.LocalID(0)] = inAcc.Slice()[it.GlobalID(0)] })
				},
				func(g *gpu.Group) { // after item.barrier(local_space)
					g.Each(func(it *gpu.Item) { outAcc.Slice()[it.GlobalID(0)] = s[it.LocalID(0)] * 2 })
				},
			}
		})
	})
	if err := ev.Wait(); err != nil {
		t.Fatalf("event: %v", err)
	}
	if ev.Stats() == nil || ev.Stats().WorkItems != n || ev.Stats().Barriers != n {
		t.Errorf("stats = %+v", ev.Stats())
	}
	got, err := out.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i*2) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

// TestImplicitDependencies checks RAW ordering between command groups: a
// kernel writing a buffer must complete before a later kernel reading it
// runs, with no explicit wait in between.
func TestImplicitDependencies(t *testing.T) {
	q := newTestQueue(t)
	const n = 256
	a, _ := NewBuffer[int32](n)
	b, _ := NewBuffer[int32](n)

	// Group 1: a[i] = i.
	q.Submit(func(h *Handler) error {
		acc, err := Access(h, a, Write)
		if err != nil {
			return err
		}
		return h.ParallelFor("fill", gpu.R1(n), gpu.R1(64), func(it *NDItem) {
			acc.Slice()[it.GetGlobalID(0)] = int32(it.GetGlobalID(0))
		})
	})
	// Group 2: b[i] = a[i] + 1 (depends on group 1 through buffer a).
	q.Submit(func(h *Handler) error {
		ra, err := Access(h, a, Read)
		if err != nil {
			return err
		}
		wb, err := Access(h, b, Write)
		if err != nil {
			return err
		}
		return h.ParallelFor("inc", gpu.R1(n), gpu.R1(64), func(it *NDItem) {
			gid := it.GetGlobalID(0)
			wb.Slice()[gid] = ra.Slice()[gid] + 1
		})
	})
	// Group 3: a[i] = 0 (WAR against group 2's read of a).
	q.Submit(func(h *Handler) error {
		acc, err := Access(h, a, Write)
		if err != nil {
			return err
		}
		return h.ParallelFor("clear", gpu.R1(n), gpu.R1(64), func(it *NDItem) {
			acc.Slice()[it.GetGlobalID(0)] = 0
		})
	})
	if err := q.Wait(); err != nil {
		t.Fatalf("queue wait: %v", err)
	}
	gotB, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range gotB {
		if v != int32(i+1) {
			t.Fatalf("b[%d] = %d, want %d (RAW/WAR ordering broken)", i, v, i+1)
		}
	}
	gotA, _ := a.Snapshot()
	for i, v := range gotA {
		if v != 0 {
			t.Fatalf("a[%d] = %d, want 0", i, v)
		}
	}
}

// TestTableIIICopies exercises the ranged-accessor copy commands of
// Table III in both directions.
func TestTableIIICopies(t *testing.T) {
	q := newTestQueue(t)
	buf, _ := NewBuffer[uint32](16)

	src := []uint32{10, 11, 12, 13}
	ev := q.Submit(func(h *Handler) error {
		acc, err := AccessRange(h, buf, Write, 4, 8)
		if err != nil {
			return err
		}
		return CopyToDevice(h, acc, src)
	})
	if err := ev.Wait(); err != nil {
		t.Fatalf("write copy: %v", err)
	}

	dst := make([]uint32, 6)
	ev = q.Submit(func(h *Handler) error {
		acc, err := AccessRange(h, buf, Read, 6, 7)
		if err != nil {
			return err
		}
		return CopyFromDevice(h, dst, acc)
	})
	if err := ev.Wait(); err != nil {
		t.Fatalf("read copy: %v", err)
	}
	want := []uint32{0, 10, 11, 12, 13, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

// TestBufferWriteBack verifies the §III.A destruction semantics: Destroy
// waits for outstanding work and copies contents back to host memory.
func TestBufferWriteBack(t *testing.T) {
	q := newTestQueue(t)
	host := []int32{1, 2, 3, 4}
	buf, _ := NewBufferFrom(host)
	q.Submit(func(h *Handler) error {
		acc, err := Access(h, buf, ReadWrite)
		if err != nil {
			return err
		}
		return h.ParallelFor("square", gpu.R1(4), gpu.R1(4), func(it *NDItem) {
			v := acc.Slice()[it.GetGlobalID(0)]
			acc.Slice()[it.GetGlobalID(0)] = v * v
		})
	})
	// No explicit wait: Destroy must wait for the kernel itself.
	if err := buf.Destroy(); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	want := []int32{1, 4, 9, 16}
	for i := range want {
		if host[i] != want[i] {
			t.Errorf("host[%d] = %d, want %d", i, host[i], want[i])
		}
	}
	// Destruction is idempotent, unlike an OpenCL double release.
	if err := buf.Destroy(); err != nil {
		t.Errorf("second Destroy: %v", err)
	}
}

func TestBufferNoWriteBackWhenUnwritten(t *testing.T) {
	q := newTestQueue(t)
	host := []int32{5, 6}
	buf, _ := NewBufferFrom(host)
	dst := make([]int32, 2)
	ev := q.Submit(func(h *Handler) error {
		acc, err := Access(h, buf, Read)
		if err != nil {
			return err
		}
		return CopyFromDevice(h, dst, acc)
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	host[0] = 99 // host mutation after construction
	if err := buf.Destroy(); err != nil {
		t.Fatal(err)
	}
	if host[0] != 99 {
		t.Error("read-only buffer overwrote host memory on destruction")
	}
}

func TestUseAfterDestroy(t *testing.T) {
	q := newTestQueue(t)
	buf, _ := NewBuffer[int32](8)
	if err := buf.Destroy(); err != nil {
		t.Fatal(err)
	}
	ev := q.Submit(func(h *Handler) error {
		_, err := Access(h, buf, Read)
		return err
	})
	if err := ev.Wait(); !errors.Is(err, ErrBufferDestroyed) {
		t.Errorf("access after destroy = %v, want ErrBufferDestroyed", err)
	}
	if _, err := buf.Snapshot(); !errors.Is(err, ErrBufferDestroyed) {
		t.Errorf("snapshot after destroy = %v, want ErrBufferDestroyed", err)
	}
}

func TestAccessRangeErrors(t *testing.T) {
	q := newTestQueue(t)
	buf, _ := NewBuffer[int32](8)
	ev := q.Submit(func(h *Handler) error {
		_, err := AccessRange(h, buf, Read, 6, 4)
		if !errors.Is(err, ErrInvalidAccessRange) {
			t.Errorf("overlong range = %v", err)
		}
		_, err = AccessRange(h, buf, Read, -1, 0)
		if !errors.Is(err, ErrInvalidAccessRange) {
			t.Errorf("negative count = %v", err)
		}
		acc, err := Access(h, buf, Read)
		if err != nil {
			return err
		}
		return CopyFromDevice(h, make([]int32, 8), acc)
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCommandGroupErrors(t *testing.T) {
	q := newTestQueue(t)
	// No action.
	ev := q.Submit(func(h *Handler) error { return nil })
	if err := ev.Wait(); !errors.Is(err, ErrNoAction) {
		t.Errorf("empty group = %v, want ErrNoAction", err)
	}
	// Two actions.
	buf, _ := NewBuffer[int32](4)
	ev = q.Submit(func(h *Handler) error {
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		if err := CopyToDevice(h, acc, make([]int32, 4)); err != nil {
			return err
		}
		return h.ParallelFor("extra", gpu.R1(4), gpu.R1(4), func(it *NDItem) {})
	})
	if err := ev.Wait(); err == nil {
		t.Error("double action = nil error")
	}
	// Command-group function error propagates to the event.
	wantErr := errors.New("boom")
	ev = q.Submit(func(h *Handler) error { return wantErr })
	if err := ev.Wait(); !errors.Is(err, wantErr) {
		t.Errorf("cg error = %v, want boom", err)
	}
	// Handler escaping its command group is rejected.
	var escaped *Handler
	ev = q.Submit(func(h *Handler) error {
		escaped = h
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		return CopyToDevice(h, acc, make([]int32, 4))
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := Access(escaped, buf, Read); !errors.Is(err, ErrHandlerReuse) {
		t.Errorf("escaped handler = %v, want ErrHandlerReuse", err)
	}
}

// TestPhaseKernelErrorsSurfaceOnEvent: a phase kernel that is mis-shaped —
// no phase, a nil phase — or that panics, in its factory or in a group,
// fails the launch as an error on the event and through the async handler;
// it never takes the process down.
func TestPhaseKernelErrorsSurfaceOnEvent(t *testing.T) {
	q := newTestQueue(t)
	var delivered atomic.Int32
	q.SetAsyncHandler(func(*AsyncError) { delivered.Add(1) })
	nop := func(g *gpu.Group) {}
	cases := []struct {
		name, want string
		kernel     func(m *LocalMem) []gpu.Phase
	}{
		{"no phases", "no phases", func(*LocalMem) []gpu.Phase { return nil }},
		{"nil phase", "nil phase", func(*LocalMem) []gpu.Phase { return []gpu.Phase{nop, nil} }},
		{"panicking phase", "panicked: boom", func(*LocalMem) []gpu.Phase {
			return []gpu.Phase{func(g *gpu.Group) { panic("boom") }}
		}},
		{"panicking factory", "panicked: no kernel", func(*LocalMem) []gpu.Phase { panic("no kernel") }},
	}
	for i, tc := range cases {
		ev := q.Submit(func(h *Handler) error {
			return h.ParallelForPhases(tc.name, gpu.R1(64*64), gpu.R1(64), tc.kernel)
		})
		err := ev.Wait()
		if err == nil || !strings.Contains(err.Error(), tc.want) || ev.Stats() != nil {
			t.Errorf("%s: event = %v (stats %v), want an error naming %q", tc.name, err, ev.Stats(), tc.want)
		}
		// The handler has run by the time the event completes.
		if got := int(delivered.Load()); got != i+1 {
			t.Errorf("%s: async handler saw %d deliveries, want %d", tc.name, got, i+1)
		}
	}
	ev := q.Submit(func(h *Handler) error {
		return h.ParallelForPhases("nil", gpu.R1(64), gpu.R1(64), nil)
	})
	if err := ev.Wait(); err == nil {
		t.Error("nil phase kernel accepted")
	}
}

// TestAsyncErrorOnQueueWait verifies launch-time errors surface on
// Queue.Wait, like SYCL's async handler.
func TestAsyncErrorOnQueueWait(t *testing.T) {
	q := newTestQueue(t)
	buf, _ := NewBuffer[int32](100)
	q.Submit(func(h *Handler) error {
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		// 100 % 64 != 0: invalid nd_range surfaces asynchronously.
		return h.ParallelFor("bad", gpu.R1(100), gpu.R1(64), func(it *NDItem) {
			acc.Slice()[it.GetGlobalID(0)] = 1
		})
	})
	if err := q.Wait(); !errors.Is(err, gpu.ErrLocalSize) {
		t.Errorf("Queue.Wait = %v, want ErrLocalSize", err)
	}
}

func TestAtomicRefTableV(t *testing.T) {
	q := newTestQueue(t)
	var counter uint32
	cbuf, _ := NewBufferFrom([]uint32{0}) // slot store
	out, _ := NewBuffer[uint32](512)
	_ = cbuf
	ev := q.Submit(func(h *Handler) error {
		acc, err := Access(h, out, Write)
		if err != nil {
			return err
		}
		return h.ParallelFor("atomics", gpu.R1(512), gpu.R1(64), func(it *NDItem) {
			old := AtomicInc(it, &counter)
			acc.Slice()[old] = uint32(it.GetGlobalID(0))
		})
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if counter != 512 {
		t.Fatalf("counter = %d, want 512", counter)
	}
	got, _ := out.Snapshot()
	seen := make(map[uint32]bool)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("value %d stored twice: atomic slots not unique", v)
		}
		seen[v] = true
	}
	if ev.Stats().AtomicOps != 512 {
		t.Errorf("AtomicOps = %d, want 512", ev.Stats().AtomicOps)
	}
}

func TestConstantBuffer(t *testing.T) {
	q := newTestQueue(t)
	pat, err := NewConstantBuffer([]byte("NGG"))
	if err != nil {
		t.Fatal(err)
	}
	ev := q.Submit(func(h *Handler) error {
		acc, err := Access(h, pat, Read)
		if err != nil {
			return err
		}
		if !acc.Constant() {
			t.Error("accessor should report constant target")
		}
		return h.ParallelFor("touch", gpu.R1(4), gpu.R1(4), func(it *NDItem) {
			it.Item().LoadConstant()
			_ = acc.Slice()[0]
		})
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if ev.Stats().ConstantLoadOps != 4 {
		t.Errorf("ConstantLoadOps = %d", ev.Stats().ConstantLoadOps)
	}
	// Writing a constant buffer is rejected.
	ev = q.Submit(func(h *Handler) error {
		_, err := Access(h, pat, Write)
		return err
	})
	if err := ev.Wait(); err == nil {
		t.Error("write access to constant buffer = nil error")
	}
}

func TestNDItemNames(t *testing.T) {
	q := newTestQueue(t)
	buf, _ := NewBuffer[int32](128)
	ev := q.Submit(func(h *Handler) error {
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		return h.ParallelFor("names", gpu.R1(128), gpu.R1(32), func(it *NDItem) {
			// Table IV: group*localRange + localID == globalID.
			if it.GetGroup(0)*it.GetLocalRange(0)+it.GetLocalID(0) != it.GetGlobalID(0) {
				t.Error("nd_item coordinate identity broken")
			}
			if it.GetGlobalRange(0) != 128 || it.GetGroupRange(0) != 4 {
				t.Error("nd_item ranges wrong")
			}
			acc.Slice()[it.GetGlobalID(0)] = 1
		})
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceOOMSurfacesOnEvent(t *testing.T) {
	q := newTestQueue(t) // MI100: 32 GiB
	big, err := NewBuffer[int64](1 << 33)
	if err != nil {
		t.Fatal(err)
	}
	ev := q.Submit(func(h *Handler) error {
		acc, err := Access(h, big, Write)
		if err != nil {
			return err
		}
		return h.ParallelFor("oom", gpu.R1(64), gpu.R1(64), func(it *NDItem) {
			_ = acc
		})
	})
	if err := ev.Wait(); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Errorf("oversized buffer = %v, want ErrOutOfMemory", err)
	}
}

func TestNewBufferErrors(t *testing.T) {
	if _, err := NewBuffer[int32](-1); err == nil {
		t.Error("negative size = nil error")
	}
}

func TestProgrammingStepCounts(t *testing.T) {
	if got := len(ProgrammingSteps()); got != 8 {
		t.Errorf("SYCL steps = %d, want 8 (Table I)", got)
	}
}

// TestCrossQueueBufferDependencies: two queues on the same device sharing a
// buffer are still ordered by the buffer's dependency state.
func TestCrossQueueBufferDependencies(t *testing.T) {
	dev := gpu.New(device.MI60(), gpu.WithWorkers(4))
	q1, err := NewQueue(DefaultSelector{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQueue(DefaultSelector{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := NewBuffer[int32](256)
	q1.Submit(func(h *Handler) error {
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		return h.ParallelFor("fill", gpu.R1(256), gpu.R1(64), func(it *NDItem) {
			acc.Slice()[it.GetGlobalID(0)] = 7
		})
	})
	ev := q2.Submit(func(h *Handler) error {
		acc, err := Access(h, buf, ReadWrite)
		if err != nil {
			return err
		}
		return h.ParallelFor("inc", gpu.R1(256), gpu.R1(64), func(it *NDItem) {
			acc.Slice()[it.GetGlobalID(0)]++
		})
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := buf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 8 {
			t.Fatalf("buf[%d] = %d, want 8 (cross-queue ordering broken)", i, v)
		}
	}
}

func TestAccessorMetadata(t *testing.T) {
	q := newTestQueue(t)
	buf, _ := NewBuffer[int32](16)
	ev := q.Submit(func(h *Handler) error {
		acc, err := AccessRange(h, buf, ReadWrite, 4, 8)
		if err != nil {
			return err
		}
		if acc.Len() != 4 || acc.Offset() != 8 || acc.Mode() != ReadWrite {
			t.Errorf("accessor metadata: len=%d off=%d mode=%v", acc.Len(), acc.Offset(), acc.Mode())
		}
		if acc.Constant() {
			t.Error("plain buffer reported constant")
		}
		return CopyToDevice(h, acc, make([]int32, 4))
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
}
