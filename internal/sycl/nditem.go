package sycl

import "casoffinder/internal/gpu"

// NDItem encapsulates a work-item's coordinates within its work-group and
// ND-range — the SYCL nd_item class of Table IV. Method names follow the
// SYCL spelling so the migration contrast with the OpenCL index functions
// is visible at the call site:
//
//	get_global_id(0)              -> item.GetGlobalID(0)
//	get_group_id(0)               -> item.GetGroup(0)
//	get_local_size(0)             -> item.GetLocalRange(0)
//	barrier(CLK_LOCAL_MEM_FENCE)  -> the boundary between two phases of
//	                                 Handler.ParallelForPhases
//
// The simulator has no blocking barrier to call: everything a phase wrote is
// visible to the next, which satisfies every fence space of
// item.barrier(access::fence_space).
type NDItem struct {
	it *gpu.Item
}

// GetGlobalID returns the global index in dimension d.
func (n *NDItem) GetGlobalID(d int) int { return n.it.GlobalID(d) }

// GetLocalID returns the index within the work-group.
func (n *NDItem) GetLocalID(d int) int { return n.it.LocalID(d) }

// GetGroup returns the work-group index in dimension d.
func (n *NDItem) GetGroup(d int) int { return n.it.GroupID(d) }

// GetLocalRange returns the work-group size in dimension d.
func (n *NDItem) GetLocalRange(d int) int { return n.it.LocalRange(d) }

// GetGlobalRange returns the ND-range extent in dimension d.
func (n *NDItem) GetGlobalRange(d int) int { return n.it.GlobalRange(d) }

// GetGroupRange returns the number of work-groups in dimension d.
func (n *NDItem) GetGroupRange(d int) int { return n.it.GroupRange(d) }

// Item exposes the underlying simulator work-item so kernel bodies shared
// with the OpenCL frontend can be called from a SYCL lambda, the
// minimal-code-change migration style §III.E describes.
func (n *NDItem) Item() *gpu.Item { return n.it }
