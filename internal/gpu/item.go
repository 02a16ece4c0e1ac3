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

// Group is the work-group a Phase is running: its coordinates in the
// ND-range and the executing worker's Stats shard. One Group per worker is
// re-targeted at each work-group the worker claims.
type Group struct {
	launch *launchState
	stats  *Stats
	id     [MaxDims]int
	linear int
	items  []Item
}

// target repoints the worker's group at the given linear group index.
func (g *Group) target(linear int) {
	g.linear = linear
	for dim := 0; dim < MaxDims; dim++ {
		g.id[dim] = linear % g.launch.gridDim[dim]
		linear /= g.launch.gridDim[dim]
	}
}

// ID returns the group's index in dimension d (get_group_id).
func (g *Group) ID(d int) int {
	if d < 0 || d >= MaxDims {
		return 0
	}
	return g.id[d]
}

// Linear returns the group's linearized index.
func (g *Group) Linear() int { return g.linear }

// Base returns the global index, in dimension 0, of the group's first
// work-item; a one-dimensional group covers [Base, Base+Size).
func (g *Group) Base() int { return g.id[0] * g.launch.local.Size(0) }

// Size returns the number of work-items in the group.
func (g *Group) Size() int { return g.launch.groupSize }

// LocalRange returns the work-group extent in dimension d.
func (g *Group) LocalRange(d int) int { return g.launch.local.Size(d) }

// Device returns the device executing the group.
func (g *Group) Device() *Device { return g.launch.dev }

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
			it := &g.items[li]
			it.Stats, it.group = g.stats, g
			rem := li
			for dim := 0; dim < MaxDims; dim++ {
				it.localID[dim] = rem % g.launch.local.Size(dim)
				rem /= g.launch.local.Size(dim)
			}
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
	localID [MaxDims]int
}

// Group returns the work-group context of the item.
func (it *Item) Group() *Group { return it.group }

// GlobalID returns the work-item's global index in dimension d
// (get_global_id / nd_item::get_global_id).
func (it *Item) GlobalID(d int) int {
	if d < 0 || d >= MaxDims {
		return 0
	}
	return it.group.id[d]*it.group.launch.local.Size(d) + it.localID[d]
}

// LocalID returns the index within the work-group (get_local_id).
func (it *Item) LocalID(d int) int {
	if d < 0 || d >= MaxDims {
		return 0
	}
	return it.localID[d]
}

// GroupID returns the work-group index (get_group_id / nd_item::get_group).
func (it *Item) GroupID(d int) int { return it.group.ID(d) }

// LocalRange returns the work-group size in dimension d
// (get_local_size / nd_item::get_local_range).
func (it *Item) LocalRange(d int) int { return it.group.launch.local.Size(d) }

// GlobalRange returns the ND-range extent in dimension d (get_global_size).
func (it *Item) GlobalRange(d int) int { return it.group.launch.global.Size(d) }

// GroupRange returns the number of work-groups in dimension d.
func (it *Item) GroupRange(d int) int {
	if d < 0 || d >= MaxDims {
		return 1
	}
	return it.group.launch.gridDim[d]
}
