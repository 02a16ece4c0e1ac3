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
	q, err := NewQueue(GPUSelector{}, gpu.New(device.MI100(), gpu.WithWorkers(4)))
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	return q
}

// perItem is a barrier-free kernel: one phase running body for every
// work-item of each group, by global index.
func perItem(body func(g *gpu.Group, gid int)) func(*LocalMem) []gpu.Phase {
	return func(*LocalMem) []gpu.Phase {
		return []gpu.Phase{func(g *gpu.Group) {
			for li := range g.Size() {
				body(g, g.Base()+li)
			}
		}}
	}
}

// snapshot reads a whole buffer back through a host accessor.
func snapshot[T any](t *testing.T, b *Buffer[T], n int) []T {
	t.Helper()
	got := make([]T, n)
	if err := b.SnapshotRange(0, n, got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSelectors(t *testing.T) {
	rvii := gpu.New(device.RadeonVII())
	mi100 := gpu.New(device.MI100())
	devs := []*gpu.Device{rvii, mi100}

	got, err := (GPUSelector{}).Select(devs)
	if err != nil || got != mi100 {
		t.Errorf("GPUSelector picked %v, %v; want MI100 (most CUs)", got, err)
	}
	if q, err := NewQueue(GPUSelector{}, devs...); err != nil || q.dev != mi100 {
		t.Errorf("NewQueue(GPUSelector) = %v; want a queue on MI100", err)
	}
	if _, err := (GPUSelector{}).Select(nil); !errors.Is(err, ErrNoDevice) {
		t.Errorf("GPUSelector(none) = %v, want ErrNoDevice", err)
	}
	if _, err := NewQueue(GPUSelector{}); !errors.Is(err, ErrNoDevice) {
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

	ev := q.Submit(nil, func(h *Handler) error {
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
		return h.ParallelForPhases("scale", n, 256, func(m *LocalMem) []gpu.Phase {
			s := staging.Slice(m)
			return []gpu.Phase{
				func(g *gpu.Group) {
					for li := range g.Size() {
						s[li] = inAcc.Slice()[g.Base()+li]
					}
				},
				func(g *gpu.Group) { // after item.barrier(local_space)
					for li := range g.Size() {
						outAcc.Slice()[g.Base()+li] = s[li] * 2
					}
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
	for i, v := range snapshot(t, out, n) {
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
	ev1 := q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, a, Write)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("fill", n, 64, perItem(func(g *gpu.Group, gid int) {
			acc.Slice()[gid] = int32(gid)
		}))
	})
	// Group 2: b[i] = a[i] + 1 (depends on group 1 through buffer a).
	ev2 := q.Submit(nil, func(h *Handler) error {
		ra, err := Access(h, a, Read)
		if err != nil {
			return err
		}
		wb, err := Access(h, b, Write)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("inc", n, 64, perItem(func(g *gpu.Group, gid int) {
			wb.Slice()[gid] = ra.Slice()[gid] + 1
		}))
	})
	// Group 3: a[i] = 0 (WAR against group 2's read of a).
	ev3 := q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, a, Write)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("clear", n, 64, perItem(func(g *gpu.Group, gid int) {
			acc.Slice()[gid] = 0
		}))
	})
	for _, ev := range []*Event{ev1, ev2, ev3} {
		if err := ev.Wait(); err != nil {
			t.Fatalf("event: %v", err)
		}
	}
	for i, v := range snapshot(t, b, n) {
		if v != int32(i+1) {
			t.Fatalf("b[%d] = %d, want %d (RAW/WAR ordering broken)", i, v, i+1)
		}
	}
	for i, v := range snapshot(t, a, n) {
		if v != 0 {
			t.Fatalf("a[%d] = %d, want 0", i, v)
		}
	}
}

// TestBufferWriteBack verifies the §III.A destruction semantics: Destroy
// waits for outstanding work and copies contents back to host memory.
func TestBufferWriteBack(t *testing.T) {
	q := newTestQueue(t)
	host := []int32{1, 2, 3, 4}
	buf, _ := NewBufferFrom(host)
	q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, buf, ReadWrite)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("square", 4, 4, perItem(func(g *gpu.Group, gid int) {
			v := acc.Slice()[gid]
			acc.Slice()[gid] = v * v
		}))
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
	ev := q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, buf, Read)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("copy", 2, 2, perItem(func(g *gpu.Group, gid int) {
			dst[gid] = acc.Slice()[gid]
		}))
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("kernel read %v, want [5 6]", dst)
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
	ev := q.Submit(nil, func(h *Handler) error {
		_, err := Access(h, buf, Read)
		return err
	})
	if err := ev.Wait(); !errors.Is(err, ErrBufferDestroyed) {
		t.Errorf("access after destroy = %v, want ErrBufferDestroyed", err)
	}
	if err := buf.SnapshotRange(0, 8, make([]int32, 8)); !errors.Is(err, ErrBufferDestroyed) {
		t.Errorf("snapshot after destroy = %v, want ErrBufferDestroyed", err)
	}
}

// TestAccessRangeErrors: a ranged host accessor outside the buffer is
// refused, and one inside it reads just its window.
func TestAccessRangeErrors(t *testing.T) {
	buf, _ := NewBufferFrom([]int32{0, 1, 2, 3, 4, 5, 6, 7})
	dst := make([]int32, 8)
	for _, r := range [][2]int{{6, 4}, {-1, 2}, {0, -1}, {0, 9}} {
		if err := buf.SnapshotRange(r[0], r[1], dst); !errors.Is(err, ErrInvalidAccessRange) {
			t.Errorf("SnapshotRange(%d, %d) = %v, want ErrInvalidAccessRange", r[0], r[1], err)
		}
	}
	if err := buf.SnapshotRange(0, 4, dst[:3]); !errors.Is(err, ErrInvalidAccessRange) {
		t.Errorf("SnapshotRange into 3 of 4 elements = %v, want ErrInvalidAccessRange", err)
	}
	got := dst[:4]
	if err := buf.SnapshotRange(3, 4, got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Errorf("SnapshotRange(3, 4) = %v, want [3 4 5 6]", got)
	}
}

// TestCommandGroupErrors: an error of the command-group function — its
// own, a second action, or ErrNoAction for a group that launches nothing —
// is synchronous, completing the event without reaching the async handler;
// a launch error is asynchronous, surfacing on the event and delivered to
// the handler once.
func TestCommandGroupErrors(t *testing.T) {
	q := newTestQueue(t)
	var delivered atomic.Int32
	q.SetAsyncHandler(func(*AsyncError) { delivered.Add(1) })
	deliveries := func(what string, want int32) {
		t.Helper()
		if got := delivered.Swap(0); got != want {
			t.Errorf("%s: async handler saw %d deliveries, want %d", what, got, want)
		}
	}
	nop := perItem(func(*gpu.Group, int) {})

	// No action.
	ev := q.Submit(nil, func(h *Handler) error { return nil })
	if err := ev.Wait(); !errors.Is(err, ErrNoAction) {
		t.Errorf("empty group = %v, want ErrNoAction", err)
	}
	deliveries("ErrNoAction", 0)
	// Two actions.
	ev = q.Submit(nil, func(h *Handler) error {
		if err := h.ParallelForPhases("first", 4, 4, nop); err != nil {
			return err
		}
		return h.ParallelForPhases("extra", 4, 4, nop)
	})
	if err := ev.Wait(); err == nil {
		t.Error("double action = nil error")
	}
	deliveries("double action", 0)
	// Command-group function error propagates to the event.
	wantErr := errors.New("boom")
	ev = q.Submit(nil, func(h *Handler) error { return wantErr })
	if err := ev.Wait(); !errors.Is(err, wantErr) {
		t.Errorf("cg error = %v, want boom", err)
	}
	deliveries("command-group function error", 0)
	// A launch error: 100 % 64 != 0, an invalid nd_range, surfaces
	// asynchronously.
	buf, _ := NewBuffer[int32](100)
	ev = q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("bad", 100, 64, perItem(func(g *gpu.Group, gid int) {
			acc.Slice()[gid] = 1
		}))
	})
	if err := ev.Wait(); !errors.Is(err, gpu.ErrLocalSize) {
		t.Errorf("invalid nd_range = %v, want ErrLocalSize", err)
	}
	deliveries("launch error", 1)
	// Handler escaping its command group is rejected.
	var escaped *Handler
	clean, _ := NewBuffer[int32](4)
	ev = q.Submit(nil, func(h *Handler) error {
		escaped = h
		if _, err := Access(h, clean, Write); err != nil {
			return err
		}
		return h.ParallelForPhases("escape", 4, 4, nop)
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := Access(escaped, clean, Read); !errors.Is(err, ErrHandlerReuse) {
		t.Errorf("escaped handler = %v, want ErrHandlerReuse", err)
	}
	deliveries("clean launch", 0)
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
		ev := q.Submit(nil, func(h *Handler) error {
			return h.ParallelForPhases(tc.name, 64*64, 64, tc.kernel)
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
	ev := q.Submit(nil, func(h *Handler) error {
		return h.ParallelForPhases("nil", 64, 64, nil)
	})
	if err := ev.Wait(); err == nil {
		t.Error("nil phase kernel accepted")
	}
}

// TestAsyncErrorOnQueueWait verifies a launch-time error surfaces
// asynchronously, like SYCL's async handler at a wait: Submit accepts the
// group, and waiting on its event yields the error after the queue's
// handler has received it as an AsyncError naming the kernel.
func TestAsyncErrorOnQueueWait(t *testing.T) {
	q := newTestQueue(t)
	var got atomic.Pointer[AsyncError]
	q.SetAsyncHandler(func(ae *AsyncError) { got.Store(ae) })
	buf, _ := NewBuffer[int32](100)
	ev := q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		// 100 % 64 != 0: invalid nd_range surfaces asynchronously.
		return h.ParallelForPhases("bad", 100, 64, perItem(func(g *gpu.Group, gid int) {
			acc.Slice()[gid] = 1
		}))
	})
	if err := ev.Wait(); !errors.Is(err, gpu.ErrLocalSize) {
		t.Errorf("Event.Wait = %v, want ErrLocalSize", err)
	}
	ae := got.Load()
	if ae == nil {
		t.Fatal("async handler not called before the event completed")
	}
	if ae.Op != "bad" || !errors.Is(ae, gpu.ErrLocalSize) {
		t.Errorf("async error = %v (op %q), want ErrLocalSize in \"bad\"", ae, ae.Op)
	}
}

func TestConstantBuffer(t *testing.T) {
	q := newTestQueue(t)
	pat, err := NewConstantBuffer([]byte("NGG"))
	if err != nil {
		t.Fatal(err)
	}
	ev := q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, pat, Read)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("touch", 4, 4, perItem(func(g *gpu.Group, gid int) {
			g.Stats().LoadConstant()
			_ = acc.Slice()[0]
		}))
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if ev.Stats().ConstantLoadOps != 4 {
		t.Errorf("ConstantLoadOps = %d", ev.Stats().ConstantLoadOps)
	}
	// Writing a constant buffer is rejected.
	ev = q.Submit(nil, func(h *Handler) error {
		_, err := Access(h, pat, Write)
		return err
	})
	if err := ev.Wait(); err == nil {
		t.Error("write access to constant buffer = nil error")
	}
}

func TestDeviceOOMSurfacesOnEvent(t *testing.T) {
	q := newTestQueue(t) // MI100: 32 GiB
	big, err := NewBuffer[int64](1 << 33)
	if err != nil {
		t.Fatal(err)
	}
	ev := q.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, big, Write)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("oom", 64, 64, perItem(func(*gpu.Group, int) { _ = acc }))
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

// TestCrossQueueBufferDependencies: two queues on the same device sharing a
// buffer are still ordered by the buffer's dependency state.
func TestCrossQueueBufferDependencies(t *testing.T) {
	dev := gpu.New(device.MI60(), gpu.WithWorkers(4))
	q1, err := NewQueue(GPUSelector{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQueue(GPUSelector{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := NewBuffer[int32](256)
	q1.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, buf, Write)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("fill", 256, 64, perItem(func(g *gpu.Group, gid int) {
			acc.Slice()[gid] = 7
		}))
	})
	ev := q2.Submit(nil, func(h *Handler) error {
		acc, err := Access(h, buf, ReadWrite)
		if err != nil {
			return err
		}
		return h.ParallelForPhases("inc", 256, 64, perItem(func(g *gpu.Group, gid int) {
			acc.Slice()[gid]++
		}))
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range snapshot(t, buf, 256) {
		if v != 8 {
			t.Fatalf("buf[%d] = %d, want 8 (cross-queue ordering broken)", i, v)
		}
	}
}
