package bench

import (
	"fmt"
	"strings"
)

// The paper's §III explains the migration through five side-by-side
// contrasts (Tables II-VI). RenderMigrationTables regenerates them with the
// reproduction's two live APIs in place of the C/C++ source: every row
// names the OpenCL call and the SYCL construct that replaced it, exactly as
// implemented (and unit-tested) in internal/opencl and internal/sycl.

// migrationRow is one contrasted pair.
type migrationRow struct {
	opencl string
	sycl   string
}

type migrationTable struct {
	title string
	rows  []migrationRow
}

func migrationTables() []migrationTable {
	return []migrationTable{
		{
			title: "Table II: memory management",
			rows: []migrationRow{
				{"d = clCreateBuffer(ctx, flags, BS, NULL, err)  -> opencl.CreateBuffer[T](ctx, flags, n, nil)",
					"buffer<T,D> d(WS)  -> sycl.NewBuffer[T](ws)"},
				{"d = clCreateBuffer(ctx, flags, BS, h, err)  -> opencl.CreateBuffer(ctx, flags|MemCopyHostPtr, n, host)",
					"buffer<T,D> d(h, WS)  -> sycl.NewBufferFrom(host)"},
				{"clReleaseMemObject(d)  -> Mem.Release (explicit, double release errors)",
					"handled by the runtime  -> Buffer.Destroy (waits, writes back, idempotent)"},
			},
		},
		{
			title: "Table III: data movement between host and device",
			rows: []migrationRow{
				{"clEnqueueReadBuffer(q, src, blocking, offset, cb, dst, ...)  -> opencl.EnqueueReadBuffer(q, src, true, off, n, dst)",
					"auto d = dst.get_access<sycl_read>(cgh, range, offset); cgh.copy(d, src)  -> sycl.AccessRange + sycl.CopyFromDevice"},
				{"clEnqueueWriteBuffer(q, dst, blocking, offset, cb, src, ...)  -> opencl.EnqueueWriteBuffer(q, dst, true, off, n, src)",
					"auto d = dst.get_access<sycl_write>(cgh, range, offset); cgh.copy(src, d)  -> sycl.AccessRange + sycl.CopyToDevice"},
			},
		},
		{
			title: "Table IV: coordinate index and barrier",
			rows: []migrationRow{
				{"get_global_id(0)  -> gpu.Item.GlobalID(0)", "item.get_global_id(0)  -> sycl.NDItem.GetGlobalID(0)"},
				{"get_group_id(0)  -> gpu.Item.GroupID(0)", "item.get_group(0)  -> sycl.NDItem.GetGroup(0)"},
				{"get_local_size(0)  -> gpu.Item.LocalRange(0)", "item.get_local_range(0)  -> sycl.NDItem.GetLocalRange(0)"},
				{"barrier(CLK_LOCAL_MEM_FENCE)  -> the boundary between two gpu.Phase functions of the kernel's gpu.PhaseKernel (KernelBuilder.BuildPhases)",
					"item.barrier(access::fence_space::local_space)  -> the boundary between two phases of Handler.ParallelForPhases"},
			},
		},
		{
			title: "Table V: atomic increment",
			rows: []migrationRow{
				{"#pragma OPENCL EXTENSION cl_khr_global_int32_base_atomics : enable; old = atomic_inc(var)  -> gpu.Item.AtomicIncUint32(&var)",
					"atomic_ref<T, relaxed, device, global_space> obj(val); obj.fetch_add(1)  -> sycl.AtomicInc(item, &val) / sycl.NewAtomicRef(...).FetchAdd(1)"},
			},
		},
		{
			title: "Table VI: executing the finder kernel",
			rows: []migrationRow{
				{"__kernel void finder(__global char* chr, __constant char* pat, ..., __local char* l_pat, __local int* l_pat_index)  -> kernels.NewFinder(args).Phases(lPat, lPatIndex)",
					"void finder(nd_item<1>& item, char* chr, char* pat, ...)  -> the same kernels.Finder phases returned from the ParallelForPhases lambda"},
				{"clSetKernelArg(k, 0, ...); clSetKernelArg(k, 1, ...); ...  -> Kernel.SetArg / Kernel.SetArgLocal per slot",
					"variables captured by the lambda  -> accessors and local accessors captured by the command-group closure"},
				{"clEnqueueNDRangeKernel(q, k, 1, NULL, gws, lws, ...)  -> CommandQueue.EnqueueNDRangeKernel(k, gws, lws)",
					"q.submit([&](handler& h){ h.parallel_for(nd_range<1>(gws, lws), [=](nd_item<1> it){ finder(it, ...); }); })  -> Queue.Submit + Handler.ParallelForPhases (Handler.ParallelFor for a barrier-free body)"},
			},
		},
	}
}

// RenderMigrationTables renders Tables II-VI as text.
func RenderMigrationTables() string {
	var b strings.Builder
	for _, t := range migrationTables() {
		fmt.Fprintf(&b, "%s\n", t.title)
		for _, r := range t.rows {
			fmt.Fprintf(&b, "  OpenCL: %s\n", r.opencl)
			fmt.Fprintf(&b, "  SYCL:   %s\n\n", r.sycl)
		}
	}
	return b.String()
}
