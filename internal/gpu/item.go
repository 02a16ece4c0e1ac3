package gpu

// Phase is one barrier-delimited section of a kernel, called once per
// work-group. The scheduler runs a group's phases in order on one worker, so
// the boundary between two phases has exactly the semantics of a work-group
// barrier — everything phase k wrote is visible to phase k+1 — without
// blocking a goroutine, and it accounts one barrier execution per work-item
// per boundary.
type Phase func(g *Group)

// PhaseKernel is the launch contract: a factory the scheduler invokes once
// per executing worker, returning the kernel's phases. Storage the factory
// allocates plays the role of shared local memory and is reused by every
// group the worker runs. That matches real devices, where local memory is
// uninitialized at group start — phases must write it before reading it, as
// the paper's staging loops do.
type PhaseKernel func() []Phase

// Group is the work-group a Phase is running: its index in the ND-range and
// the executing worker's Stats shard. One Group per worker is re-targeted at
// each work-group the worker claims.
type Group struct {
	stats *Stats
	id    int
	local int
	items []Item
}

// ID returns the group's index (get_group_id(0) / nd_item::get_group(0)).
func (g *Group) ID() int { return g.id }

// Base returns the global index of the group's first work-item; the group
// covers [Base, Base+Size).
func (g *Group) Base() int { return g.id * g.local }

// Size returns the number of work-items in the group (get_local_size(0) /
// nd_item::get_local_range(0)).
func (g *Group) Size() int { return g.local }

// Stats returns the executing worker's counter shard. Groups of one worker
// run one after another, so a phase updates it without synchronization.
func (g *Group) Stats() *Stats { return g.stats }

// Each runs body for every work-item of the group in local-index order —
// the per-item loop of a barrier-free kernel section. The items are built
// on a worker's first call and reused, so kernels that work on the group as
// a whole never pay for them.
func (g *Group) Each(body func(it *Item)) {
	if g.items == nil {
		g.items = make([]Item, g.Size())
		for li := range g.items {
			g.items[li] = Item{Stats: g.stats, group: g, localID: li}
		}
	}
	for li := range g.items {
		body(&g.items[li])
	}
}

// Item is the execution context of one work-item inside Group.Each: its
// coordinates in the ND-range and, embedded, the counting hooks of its
// worker's Stats shard. It corresponds to the OpenCL built-in index
// functions and the SYCL nd_item class contrasted in the paper's Table IV;
// the barrier of that table is the boundary between two phases.
type Item struct {
	*Stats
	group   *Group
	localID int
}

// GlobalID returns the work-item's global index (get_global_id(0) /
// nd_item::get_global_id(0)).
func (it *Item) GlobalID() int { return it.group.Base() + it.localID }

// LocalID returns the index within the work-group (get_local_id(0)).
func (it *Item) LocalID() int { return it.localID }

// GroupID returns the work-group index (get_group_id(0) /
// nd_item::get_group(0)).
func (it *Item) GroupID() int { return it.group.id }

// LocalRange returns the work-group size (get_local_size(0) /
// nd_item::get_local_range(0)).
func (it *Item) LocalRange() int { return it.group.local }
