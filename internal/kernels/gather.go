package kernels

import (
	"errors"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
)

// GatherKernelName is the gather kernel's name in the program source and in
// the launch log.
const GatherKernelName = "gather"

// GatherArgs are the arguments of the gather kernel: the finder's
// page-strided output and its arena, whose tables say which page each
// work-group claimed and how much of it it filled, and the dense arrays the
// comparer reads its candidates from.
type GatherArgs struct {
	// Arena is the finder's arena as the finder left it on the device; the
	// gather reads its emission counters and page table.
	Arena *alloc.Device
	// Loci and Flags are the finder's page-strided outputs; their capacity
	// must cover every provisioned arena slot.
	Loci  []uint32
	Flags []byte
	// N is the number of entries to gather; OutLoci and OutFlags receive
	// them densely in [0, N).
	N        int
	OutLoci  []uint32
	OutFlags []byte
}

func (a *GatherArgs) validate() error {
	if a.N < 0 || len(a.OutLoci) < a.N || len(a.OutFlags) < a.N {
		return errors.New("kernels: gather: output arrays shorter than the entry count")
	}
	return validateArena("gather", a.Arena, len(a.Loci), len(a.Flags))
}

// Gather is the compaction kernel bound to one launch's arguments. It is not
// part of the paper's program, which reads the finder's flat output back:
// it concatenates the valid prefix of every page the finder's arena claimed
// into the comparer's dense [0, N) input, in ascending owning work-group
// order — the order of alloc.Geometry.Order, so alloc.Gather is its host
// reference. Page order and offsets come from the arena tables on the
// device, never from the host.
//
// It runs as one work-group of any size; work-item i owns the i-th
// contiguous run of the arena's groups. Phase 0 sums each item's run into
// shared local memory; phase 1 has the group's first item turn the sums
// into exclusive offsets; phase 2 copies each item's pages to its offset.
// A group whose page is not provisioned contributes nothing, a count past
// the page size is clamped to it, and no entry lands at or past N, so the
// kernel never reads outside a page's slots or writes outside [0, N).
type Gather struct {
	a *GatherArgs
	// group is one arena group's table reads, entry one gathered entry.
	group, entry gpu.Stats
}

// NewGather validates the arguments and builds the launch's cost plan.
func NewGather(a *GatherArgs) (*Gather, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	k := &Gather{a: a}
	k.group.LoadGlobal(4) // count[g]
	k.group.LoadGlobal(4) // page_of[g]
	k.group.ALU(2)
	k.group.Branch(false)
	k.entry.LoadGlobal(4)
	k.entry.LoadGlobal(1)
	k.entry.StoreGlobal(4)
	k.entry.StoreGlobal(1)
	return k, nil
}

// entries is the number of valid entries group g holds and the slot its
// page starts at.
func (k *Gather) entries(g int) (n, base int) {
	a := k.a.Arena
	p := a.PageOf[g]
	if int64(p) >= int64(a.Pages) {
		return 0, 0 // NoPage, PageOverflow or a page that was never provisioned
	}
	return min(int(a.Count[g]), a.PageSlots), int(p) * a.PageSlots
}

// run returns the arena groups work-item li of a group of size items owns.
func (k *Gather) run(li, items int) (lo, hi int) {
	groups := len(k.a.Arena.Count)
	per := (groups + items - 1) / items
	return min(li*per, groups), min((li+1)*per, groups)
}

// Phases returns the kernel's three phases for one worker. lSums is the
// worker's local array of one offset per work-item ("l_sums").
func (k *Gather) Phases(lSums []uint32) []gpu.Phase {
	return []gpu.Phase{k.sumRuns(lSums), k.scanSums(lSums), k.copyRuns(lSums)}
}

func (k *Gather) sumRuns(lSums []uint32) gpu.Phase {
	return func(g *gpu.Group) {
		st, items := g.Stats(), g.Size()
		for li := range items {
			lo, hi := k.run(li, items)
			var sum uint32
			for grp := lo; grp < hi; grp++ {
				n, _ := k.entries(grp)
				sum += uint32(n)
			}
			lSums[li] = sum
			st.AddScaled(&k.group, int64(hi-lo))
			st.StoreLocal()
		}
	}
}

func (k *Gather) scanSums(lSums []uint32) gpu.Phase {
	return func(g *gpu.Group) {
		st, items := g.Stats(), g.Size()
		var off uint32
		for li := range items {
			off, lSums[li] = off+lSums[li], off
		}
		st.LoadLocalN(items)
		st.StoreLocalN(items)
		st.ALU(items)
	}
}

func (k *Gather) copyRuns(lSums []uint32) gpu.Phase {
	return func(g *gpu.Group) {
		a, st, items := k.a, g.Stats(), g.Size()
		for li := range items {
			lo, hi := k.run(li, items)
			off := int(lSums[li])
			st.LoadLocal()
			for grp := lo; grp < hi && off < a.N; grp++ {
				n, base := k.entries(grp)
				n = min(n, a.N-off)
				copy(a.OutLoci[off:off+n], a.Loci[base:base+n])
				copy(a.OutFlags[off:off+n], a.Flags[base:base+n])
				st.AddScaled(&k.entry, int64(n))
				off += n
			}
			st.AddScaled(&k.group, int64(hi-lo))
		}
	}
}
