package kernels

import (
	"math/rand"
	"slices"
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/opencl"
	"casoffinder/internal/sycl"
)

// gatherState is a finder arena as the gather kernel finds it: the layout,
// the claim state and the view bound over it, and the page-strided outputs.
type gatherState struct {
	layout alloc.Layout
	state  []uint32
	arena  *alloc.Device
	loci   []uint32
	flags  []byte
}

// newGatherState lays counts out the way a finder launch would: the
// emitting groups claim pages in an order drawn from rng, as the cursor race
// hands them out, from a worst-case arena of one page per group. Every slot
// holds noise first, so a gather that reads past a page's fill shows.
func newGatherState(rng *rand.Rand, counts []int, pageSlots int) *gatherState {
	s := &gatherState{layout: alloc.WorstCase(len(counts), pageSlots)}
	s.state, s.arena = newArena(s.layout)
	s.loci = make([]uint32, s.layout.Slots())
	s.flags = make([]byte, s.layout.Slots())
	for i := range s.loci {
		s.loci[i], s.flags[i] = rng.Uint32(), byte(rng.Intn(256))
	}
	var emitting []int
	for g, n := range counts {
		if n > 0 {
			emitting = append(emitting, g)
		}
	}
	for page, i := range rng.Perm(len(emitting)) {
		g := emitting[i]
		s.arena.Count[g], s.arena.PageOf[g] = uint32(counts[g]), uint32(page)
	}
	*s.arena.Cursor = uint32(len(emitting))
	return s
}

// want decodes the state as the host does and gathers it with the host
// reference.
func (s *gatherState) want(t testing.TB) ([]uint32, []byte) {
	t.Helper()
	geo, err := alloc.Decode(s.layout.PageSlots, s.layout.Pages, s.state)
	if err != nil {
		t.Fatalf("arena state does not decode: %v", err)
	}
	return alloc.Gather(geo, s.loci, nil), alloc.Gather(geo, s.flags, nil)
}

// gatherSlack is how many slots past n the dense outputs carry, holding
// gatherSentinel, so a write outside [0, n) shows.
const (
	gatherSlack    = 8
	gatherSentinel = 0xA5
)

// gatherFrontends runs one gather launch of wg work-items through each host
// API, returning the dense outputs including their slack.
var gatherFrontends = []struct {
	name string
	run  func(t testing.TB, dev *gpu.Device, s *gatherState, n, wg int) ([]uint32, []byte, error)
}{
	{"opencl", gatherCL},
	{"sycl", gatherSYCL},
}

func sentinels(n int) ([]uint32, []byte) {
	loci, flags := make([]uint32, n+gatherSlack), make([]byte, n+gatherSlack)
	for i := range loci {
		loci[i], flags[i] = gatherSentinel, gatherSentinel
	}
	return loci, flags
}

func gatherCL(t testing.TB, dev *gpu.Device, s *gatherState, n, wg int) ([]uint32, []byte, error) {
	ctx, q, prog := clEnv(t, dev)
	k, err := prog.CreateKernel(GatherKernelName)
	if err != nil {
		t.Fatal(err)
	}
	outLoci, outFlags := sentinels(n)
	in := func(m *opencl.Mem, err error) *opencl.Mem {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const rw = opencl.MemReadWrite | opencl.MemCopyHostPtr
	lociOut := in(opencl.CreateBuffer(ctx, rw, len(outLoci), outLoci))
	flagsOut := in(opencl.CreateBuffer(ctx, rw, len(outFlags), outFlags))
	args := []any{
		uint32(n), int32(s.layout.PageSlots), int32(s.layout.Pages),
		in(opencl.CreateBuffer(ctx, rw, len(s.state), s.state)),
		in(opencl.CreateBuffer(ctx, rw, len(s.loci), s.loci)),
		in(opencl.CreateBuffer(ctx, rw, len(s.flags), s.flags)),
		lociOut, flagsOut,
	}
	for i, a := range args {
		if err := k.SetArg(i, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SetArgLocal(GatherArgLocalSums, 4*wg); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(nil, k, wg, wg); err != nil {
		return nil, nil, err
	}
	if _, err := opencl.EnqueueReadBuffer(q, lociOut, true, 0, len(outLoci), outLoci); err != nil {
		t.Fatal(err)
	}
	if _, err := opencl.EnqueueReadBuffer(q, flagsOut, true, 0, len(outFlags), outFlags); err != nil {
		t.Fatal(err)
	}
	return outLoci, outFlags, nil
}

func gatherSYCL(t testing.TB, dev *gpu.Device, s *gatherState, n, wg int) ([]uint32, []byte, error) {
	q, err := sycl.NewQueue(sycl.GPUSelector{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	outLoci, outFlags := sentinels(n)
	// NewBufferFrom only copies the host slice; it has no failing path.
	state, _ := sycl.NewBufferFrom(s.state)
	loci, _ := sycl.NewBufferFrom(s.loci)
	flags, _ := sycl.NewBufferFrom(s.flags)
	lociOut, _ := sycl.NewBufferFrom(outLoci)
	flagsOut, _ := sycl.NewBufferFrom(outFlags)
	err = q.Submit(nil, func(h *sycl.Handler) error {
		acc := func(b *sycl.Buffer[uint32], mode sycl.AccessMode) []uint32 {
			a, err := sycl.Access(h, b, mode)
			if err != nil {
				t.Fatal(err)
			}
			return a.Slice()
		}
		accB := func(b *sycl.Buffer[byte], mode sycl.AccessMode) []byte {
			a, err := sycl.Access(h, b, mode)
			if err != nil {
				t.Fatal(err)
			}
			return a.Slice()
		}
		arena, err := alloc.Bind(s.layout.PageSlots, s.layout.Pages, acc(state, sycl.Read))
		if err != nil {
			return err
		}
		k, err := NewGather(&GatherArgs{
			Arena: arena,
			Loci:  acc(loci, sycl.Read), Flags: accB(flags, sycl.Read),
			N: n, OutLoci: acc(lociOut, sycl.ReadWrite), OutFlags: accB(flagsOut, sycl.ReadWrite),
		})
		if err != nil {
			return err
		}
		lSums, err := sycl.NewLocalAccessor[uint32](h, wg)
		if err != nil {
			return err
		}
		return h.ParallelForPhases(GatherKernelName, wg, wg, func(m *sycl.LocalMem) []gpu.Phase {
			return k.Phases(lSums.Slice(m))
		})
	}).Wait()
	// Destroy writes each buffer back to the host slice it was built from.
	for _, b := range []interface{ Destroy() error }{state, loci, flags, lociOut, flagsOut} {
		if derr := b.Destroy(); derr != nil {
			t.Fatal(derr)
		}
	}
	return outLoci, outFlags, err
}

// checkGather runs the gather over s through every frontend and requires
// the host reference's entries in [0, len(want)) and the sentinels past it.
func checkGather(t *testing.T, dev *gpu.Device, s *gatherState, wg int) {
	t.Helper()
	wantLoci, wantFlags := s.want(t)
	n := len(wantLoci)
	for _, fe := range gatherFrontends {
		loci, flags, err := fe.run(t, dev, s, n, wg)
		if err != nil {
			t.Fatalf("%s: gather of %d entries at wg %d: %v", fe.name, n, wg, err)
		}
		if !slices.Equal(loci[:n], wantLoci) || !slices.Equal(flags[:n], wantFlags) {
			t.Errorf("%s: gather of %d entries at wg %d differs from alloc.Gather", fe.name, n, wg)
		}
		for i := n; i < len(loci); i++ {
			if loci[i] != gatherSentinel || flags[i] != gatherSentinel {
				t.Fatalf("%s: gather at wg %d wrote slot %d past its %d entries", fe.name, wg, i, n)
			}
		}
	}
}

// TestGatherMatchesHostGather pins the gather kernel to alloc.Gather, its
// host reference, through both frontends at 1, 2 and 8 workers and at group
// sizes below, at and above the arena's group count: an empty chunk, groups
// that emit nothing, full pages, a last partial group and random arenas
// whose pages were claimed in a random order.
func TestGatherMatchesHostGather(t *testing.T) {
	const slots = 64
	fill := func(groups int, f func(g int) int) []int {
		c := make([]int, groups)
		for g := range c {
			c[g] = f(g)
		}
		return c
	}
	cases := []struct {
		name      string
		counts    []int
		pageSlots int
	}{
		{"empty chunk", fill(5, func(int) int { return 0 }), slots},
		{"silent groups", fill(9, func(g int) int { return g % 3 * 7 }), slots},
		{"full pages", fill(6, func(int) int { return slots }), slots},
		{"last partial group", fill(7, func(g int) int { return slots - g/6*(slots-slots/3) }), slots},
		{"one group", []int{17}, 32},
		{"one slot pages", fill(40, func(g int) int { return g % 2 }), 1},
	}
	rng := rand.New(rand.NewSource(41))
	for i := range 12 {
		pageSlots := 1 + rng.Intn(128)
		counts := fill(1+rng.Intn(300), func(int) int {
			switch r := rng.Intn(10); {
			case r < 5:
				return 0
			case r < 7:
				return pageSlots
			default:
				return 1 + rng.Intn(pageSlots)
			}
		})
		cases = append(cases, struct {
			name      string
			counts    []int
			pageSlots int
		}{"random " + string(rune('a'+i)), counts, pageSlots})
	}
	for _, workers := range []int{1, 2, 8} {
		dev := gpu.New(device.MI100(), gpu.WithWorkers(workers))
		for _, c := range cases {
			s := newGatherState(rng, c.counts, c.pageSlots)
			for _, wg := range []int{1, 64, 256} {
				checkGather(t, dev, s, wg)
			}
		}
	}
}

// FuzzGather drives the same oracle from fuzzed arenas: group counts from
// the bytes (each at most the page size), pages claimed in a seeded random
// order, any page size and group size. With corrupt set, the counts and
// page table are the raw bytes instead — counts past the page size, pages
// past the arena, one page claimed twice — and any entry count: the kernel
// must still launch cleanly and write nothing outside [0, n).
func FuzzGather(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0}, uint8(63), uint8(63), false, uint16(0))
	f.Add(int64(2), []byte{64, 0, 64, 17}, uint8(63), uint8(0), false, uint16(0))
	f.Add(int64(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(3), uint8(2), false, uint16(0))
	f.Add(int64(4), []byte{200, 1, 0xff, 3, 9, 0xfe}, uint8(15), uint8(7), true, uint16(40))
	f.Add(int64(5), []byte{5, 5, 0, 0}, uint8(7), uint8(255), true, uint16(3))
	dev := gpu.New(device.MI100(), gpu.WithWorkers(2))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, pageSlots, wg uint8, corrupt bool, n uint16) {
		if len(raw) == 0 || len(raw) > 1024 {
			t.Skip()
		}
		slots, items := 1+int(pageSlots), 1+int(wg)
		rng := rand.New(rand.NewSource(seed))
		if !corrupt {
			counts := make([]int, len(raw))
			for g, b := range raw {
				counts[g] = int(b) % (slots + 1)
			}
			checkGather(t, dev, newGatherState(rng, counts, slots), items)
			return
		}
		groups := (len(raw) + 1) / 2
		s := newGatherState(rng, make([]int, groups), slots)
		for g := range groups {
			s.arena.Count[g] = uint32(raw[g])
			if g+groups < len(raw) {
				s.arena.PageOf[g] = uint32(raw[g+groups]) % uint32(2*s.layout.Pages+1)
			}
		}
		for _, fe := range gatherFrontends {
			loci, flags, err := fe.run(t, dev, s, int(n%512), items)
			if err != nil {
				t.Fatalf("%s: gather over corrupt tables failed: %v", fe.name, err)
			}
			for i := int(n % 512); i < len(loci); i++ {
				if loci[i] != gatherSentinel || flags[i] != gatherSentinel {
					t.Fatalf("%s: gather over corrupt tables wrote slot %d past its %d entries", fe.name, i, n%512)
				}
			}
		}
	})
}
