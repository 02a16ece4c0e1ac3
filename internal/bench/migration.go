package bench

import (
	"fmt"
	"strings"
)

// The paper explains the migration through Table I (13 OpenCL programming
// steps against 8 SYCL ones) and five side-by-side source contrasts
// (Tables II-VI). migrationRows holds all of them as data: each step or row
// keeps the paper's text and names the reproduction's code that implements
// it, and RenderTable1 and RenderMigrationTables print the Go side from
// those names alone. The names are checked against the code that runs
// (migration_test.go type-checks internal/search): every name a row gives
// is used by that side's engine (internal/search's simcl.go or simsycl.go),
// and every opencl or sycl function or method an engine calls is named by
// some row.

// migrationSide is one side of a step or row: the paper's text and the
// functions, methods, types and constants implementing it, spelled
// package.Name or package.Type.Method ("opencl.Mem.Release").
type migrationSide struct {
	paper string
	api   []string
}

// migrationRow is one Table I step, one row of Tables II-VI, or a launch
// the paper does not have.
type migrationRow struct {
	// table is the paper table the row reproduces, "I" to "VI", or "" for
	// a launch the reproduction adds.
	table        string
	opencl, sycl migrationSide
	// kernel names the shared kernel-body code of a Table IV or V row:
	// both frontends run the same bodies (internal/kernels over
	// internal/gpu/alloc), so such a row has no per-side API and the check
	// holds these names to those two packages instead.
	kernel []string
	// note says how the code departs from the paper's text.
	note string
}

// migrationSections are the sections of RenderMigrationTables, in order.
var migrationSections = []struct{ table, title string }{
	{"II", "Table II: memory management"},
	{"III", "Table III: data movement between host and device"},
	{"IV", "Table IV: coordinate index and barrier"},
	{"V", "Table V: atomic increment"},
	{"VI", "Table VI: executing the finder kernel"},
	{"", "Not in the paper: compacting the finder's pages on the device"},
}

// sharedBody is the note of every kernel-language row.
const sharedBody = "kernel language: both frontends run the shared kernel bodies"

func clStep(paper string, api ...string) migrationRow {
	return migrationRow{table: "I", opencl: migrationSide{paper, api}}
}

func syclStep(paper string, api ...string) migrationRow {
	return migrationRow{table: "I", sycl: migrationSide{paper, api}}
}

var migrationRows = []migrationRow{
	clStep("Platform query", "opencl.NewPlatform"),
	clStep("Device query of a platform", "opencl.Platform.GetDevices", "opencl.DeviceTypeGPU"),
	clStep("Create context for devices", "opencl.CreateContext"),
	clStep("Create command queue for context", "opencl.Context.CreateCommandQueue"),
	clStep("Create memory objects", "opencl.CreateBuffer"),
	clStep("Create program object", "opencl.Context.CreateProgramWithSource"),
	clStep("Build a program", "opencl.Program.Build"),
	clStep("Create kernel(s)", "opencl.Program.CreateKernel"),
	clStep("Set kernel arguments", "opencl.Kernel.SetArg", "opencl.Kernel.SetArgLocal"),
	clStep("Enqueue a kernel object for execution", "opencl.CommandQueue.EnqueueNDRangeKernel"),
	clStep("Transfer data from device to host", "opencl.EnqueueReadBuffer"),
	clStep("Event handling", "opencl.Event.Wait", "opencl.Event.Stats"),
	clStep("Release resources", "opencl.Mem.Release", "opencl.Kernel.Release",
		"opencl.Program.Release", "opencl.CommandQueue.Release", "opencl.Context.Release"),

	syclStep("Device selector class", "sycl.GPUSelector"),
	syclStep("Queue class", "sycl.NewQueue", "sycl.Queue.SetAsyncHandler"),
	syclStep("Buffer class", "sycl.NewBuffer", "sycl.NewBufferFrom", "sycl.NewConstantBuffer"),
	syclStep("Lambda expressions", "sycl.Handler", "sycl.NewLocalAccessor", "sycl.LocalAccessor.Slice"),
	syclStep("Submit a SYCL kernel to a queue", "sycl.Queue.Submit", "sycl.Handler.ParallelForPhases"),
	syclStep("Implicit transfers via accessors", "sycl.Access", "sycl.Accessor.Slice", "sycl.Buffer.SnapshotRange"),
	syclStep("Event class", "sycl.Event.Wait", "sycl.Event.Stats"),
	syclStep("Implicit release via destructors", "sycl.Buffer.Destroy"),

	{
		table:  "II",
		opencl: migrationSide{"d = clCreateBuffer(ctx, flags, BS, NULL, err)", []string{"opencl.CreateBuffer"}},
		sycl:   migrationSide{"buffer<T,D> d(WS)", []string{"sycl.NewBuffer"}},
	},
	{
		table:  "II",
		opencl: migrationSide{"d = clCreateBuffer(ctx, flags, BS, h, err)", []string{"opencl.CreateBuffer", "opencl.MemCopyHostPtr"}},
		sycl:   migrationSide{"buffer<T,D> d(h, WS)", []string{"sycl.NewBufferFrom"}},
	},
	{
		table:  "II",
		opencl: migrationSide{"clReleaseMemObject(d)", []string{"opencl.Mem.Release"}},
		sycl:   migrationSide{"handled by the runtime", []string{"sycl.Buffer.Destroy"}},
		note:   "Buffer.Destroy stands in for scope exit: it waits for the buffer's work, writes back and is idempotent",
	},
	{
		table:  "III",
		opencl: migrationSide{"clEnqueueReadBuffer(q, src, blocking, offset, cb, dst, ...)", []string{"opencl.EnqueueReadBuffer"}},
		sycl:   migrationSide{"auto d = dst.get_access<sycl_read>(cgh, range, offset); cgh.copy(d, src)", []string{"sycl.Buffer.SnapshotRange"}},
		note:   "device to host: a ranged read on both sides; SnapshotRange is a ranged host accessor",
	},
	{
		table:  "III",
		opencl: migrationSide{"clEnqueueWriteBuffer(q, dst, blocking, offset, cb, src, ...)", []string{"opencl.CreateBuffer", "opencl.MemCopyHostPtr"}},
		sycl:   migrationSide{"auto d = dst.get_access<sycl_write>(cgh, range, offset); cgh.copy(src, d)", []string{"sycl.NewBufferFrom"}},
		note:   "host to device: host data goes in when the buffer is created; no command writes a buffer afterwards",
	},
	{
		table:  "IV",
		opencl: migrationSide{paper: "get_global_id(0)"},
		sycl:   migrationSide{paper: "item.get_global_id(0)"},
		kernel: []string{"gpu.Group.Base"},
		note:   sharedBody + "; item i of a group is Base()+i",
	},
	{
		table:  "IV",
		opencl: migrationSide{paper: "get_group_id(0)"},
		sycl:   migrationSide{paper: "item.get_group(0)"},
		kernel: []string{"gpu.Group.ID"},
		note:   sharedBody,
	},
	{
		table:  "IV",
		opencl: migrationSide{paper: "get_local_size(0)"},
		sycl:   migrationSide{paper: "item.get_local_range(0)"},
		kernel: []string{"gpu.Group.Size"},
		note:   sharedBody,
	},
	{
		table:  "IV",
		opencl: migrationSide{paper: "barrier(CLK_LOCAL_MEM_FENCE)"},
		sycl:   migrationSide{paper: "item.barrier(access::fence_space::local_space)"},
		kernel: []string{"gpu.Phase"},
		note:   sharedBody + "; the barrier is the boundary between two phases",
	},
	{
		table:  "V",
		opencl: migrationSide{paper: "#pragma OPENCL EXTENSION cl_khr_global_int32_base_atomics : enable; old = atomic_inc(var)"},
		sycl:   migrationSide{paper: "atomic_ref<T, relaxed, device, global_space> obj(val); obj.fetch_add(1)"},
		kernel: []string{"alloc.Device.Claim", "alloc.Device.ClaimN", "gpu.Stats.AtomicIncUint32"},
		note:   sharedBody + "; the increments claim output slots in the hit arena",
	},
	{
		table:  "VI",
		opencl: migrationSide{"__kernel void finder(__global char* chr, __constant char* pat, ..., __local char* l_pat, __local int* l_pat_index)", []string{"kernels.CLSource"}},
		sycl:   migrationSide{"void finder(nd_item<1>& item, char* chr, char* pat, ...)", []string{"kernels.NewFinder", "kernels.Finder.Phases"}},
		note:   "both build the same kernels.Finder phases; OpenCL looks the kernel up by name in the program",
	},
	{
		table:  "VI",
		opencl: migrationSide{"clSetKernelArg(k, 0, ...); clSetKernelArg(k, 1, ...); ...", []string{"opencl.Kernel.SetArg", "opencl.Kernel.SetArgLocal"}},
		sycl:   migrationSide{"variables captured by the lambda", []string{"sycl.Access", "sycl.NewLocalAccessor"}},
	},
	{
		table:  "VI",
		opencl: migrationSide{"clEnqueueNDRangeKernel(q, k, 1, NULL, gws, lws, ...)", []string{"opencl.CommandQueue.EnqueueNDRangeKernel"}},
		sycl:   migrationSide{"q.submit([&](handler& h){ h.parallel_for(nd_range<1>(gws, lws), [=](nd_item<1> it){ finder(it, ...); }); })", []string{"sycl.Queue.Submit", "sycl.Handler.ParallelForPhases"}},
	},
	{
		opencl: migrationSide{api: []string{"kernels.GatherKernelName", "opencl.Program.CreateKernel", "opencl.CommandQueue.EnqueueNDRangeKernel"}},
		sycl:   migrationSide{api: []string{"kernels.NewGather", "kernels.Gather.Phases", "sycl.Queue.Submit", "sycl.Handler.ParallelForPhases"}},
		note:   "one gather work-group per chunk compacts the finder's arena pages before the comparer runs",
	},
}

// goSide renders the code a side names.
func goSide(api []string) string { return strings.Join(api, ", ") }

// tableISteps returns the OpenCL and SYCL steps of Table I, each rendered
// as the paper's text followed by the code implementing it.
func tableISteps() (ocl, syc []string) {
	for _, r := range migrationRows {
		if r.table != "I" {
			continue
		}
		if r.opencl.paper != "" {
			ocl = append(ocl, fmt.Sprintf("%s (%s)", r.opencl.paper, goSide(r.opencl.api)))
		}
		if r.sycl.paper != "" {
			syc = append(syc, fmt.Sprintf("%s (%s)", r.sycl.paper, goSide(r.sycl.api)))
		}
	}
	return ocl, syc
}

// RenderTable1 renders the Table I programming-step contrast.
func RenderTable1() string {
	ocl, syc := tableISteps()
	// The OpenCL column is as wide as the steps that have a SYCL partner.
	width := 0
	for _, s := range ocl[:min(len(ocl), len(syc))] {
		width = max(width, len(s))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: programming steps — OpenCL (%d) vs SYCL (%d)\n", len(ocl), len(syc))
	for i := 0; i < max(len(ocl), len(syc)); i++ {
		var l, r string
		if i < len(ocl) {
			l = ocl[i]
		}
		if i < len(syc) {
			r = syc[i]
		}
		line := fmt.Sprintf("%2d  %-*s | %s", i+1, width, l, r)
		b.WriteString(strings.TrimRight(line, " |"))
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderMigrationTables renders Tables II-VI, and the launch the paper does
// not have, as text.
func RenderMigrationTables() string {
	var b strings.Builder
	side := func(label string, s migrationSide) {
		paper := s.paper
		if paper == "" {
			paper = "(not in the paper)"
		}
		fmt.Fprintf(&b, "  %-8s%s\n", label+":", paper)
		if len(s.api) > 0 {
			fmt.Fprintf(&b, "  %-8s-> %s\n", "", goSide(s.api))
		}
	}
	for _, sec := range migrationSections {
		fmt.Fprintf(&b, "%s\n", sec.title)
		for _, r := range migrationRows {
			if r.table != sec.table {
				continue
			}
			side("OpenCL", r.opencl)
			side("SYCL", r.sycl)
			if len(r.kernel) > 0 {
				fmt.Fprintf(&b, "  %-8s-> %s\n", "both:", goSide(r.kernel))
			}
			if r.note != "" {
				fmt.Fprintf(&b, "  %-8s%s\n", "note:", r.note)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
