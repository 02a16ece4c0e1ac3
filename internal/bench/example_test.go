package bench_test

import (
	"fmt"
	"log"

	"casoffinder/internal/bench"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/opencl"
	"casoffinder/internal/search"
	"casoffinder/internal/sycl"
)

// Example_migration runs the identical off-target search through the
// OpenCL-style and the SYCL-style host programs (the paper's before and
// after applications) on the same simulated GPU, checks that their hits
// agree bit for bit, and contrasts the two programming models' step counts
// (Table I) and kernel profiles. Note the work-group sizes: the OpenCL
// runtime chose its own local size, while the SYCL program launches
// 256-item groups (§IV.A); fewer groups mean fewer serialised leader
// prefetches, part of the Table VIII gap.
func Example_migration() {
	oclSteps, syclSteps := opencl.ProgrammingSteps(), sycl.ProgrammingSteps()
	fmt.Printf("OpenCL needs %d logical steps, SYCL %d:\n", len(oclSteps), len(syclSteps))
	for i, s := range oclSteps {
		fmt.Printf("  OpenCL %2d. %s\n", i+1, s)
	}
	for i, s := range syclSteps {
		fmt.Printf("  SYCL   %2d. %s\n", i+1, s)
	}

	asm, err := genome.Generate(genome.HG19Like(1 << 20))
	if err != nil {
		log.Fatal(err)
	}
	req := &search.Request{
		Pattern: bench.ExamplePattern,
		Queries: []search.Query{
			{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 6},
			{Guide: "CGCCAGCGTCAGCGACAGGTNNN", MaxMismatches: 6},
		},
	}
	spec := device.MI100()
	cl := &search.SimCL{Device: gpu.New(spec), Variant: kernels.Base}
	clHits, err := cl.Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	sy := &search.SimSYCL{Device: gpu.New(spec), Variant: kernels.Base}
	syHits, err := sy.Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	same := len(clHits) == len(syHits)
	for i := 0; same && i < len(clHits); i++ {
		same = clHits[i] == syHits[i]
	}
	fmt.Printf("on %s: OpenCL %d hits, SYCL %d hits, identical: %v\n", spec.Name, len(clHits), len(syHits), same)

	for _, app := range []struct {
		name string
		eng  search.Profiler
	}{{"OpenCL", cl}, {"SYCL", sy}} {
		p := app.eng.LastProfile()
		fmt.Printf("%s:\n", app.name)
		for _, k := range p.KernelNames() {
			s := p.Kernels[k]
			fmt.Printf("  %-8s wg=%-3d launches=%-3d %s\n", k, p.WorkGroupSizes[k], p.Launches[k], s.String())
		}
	}
	// Output:
	// OpenCL needs 13 logical steps, SYCL 8:
	//   OpenCL  1. Platform query (NewPlatform)
	//   OpenCL  2. Device query of a platform (Platform.GetDevices)
	//   OpenCL  3. Create context for devices (CreateContext)
	//   OpenCL  4. Create command queue for context (Context.CreateCommandQueue)
	//   OpenCL  5. Create memory objects (CreateBuffer)
	//   OpenCL  6. Create program object (Context.CreateProgramWithSource)
	//   OpenCL  7. Build a program (Program.Build)
	//   OpenCL  8. Create kernel(s) (Program.CreateKernel)
	//   OpenCL  9. Set kernel arguments (Kernel.SetArg)
	//   OpenCL 10. Enqueue a kernel object for execution (CommandQueue.EnqueueNDRangeKernel)
	//   OpenCL 11. Transfer data from device to host (EnqueueReadBuffer)
	//   OpenCL 12. Event handling (Event.Wait / CommandQueue.Finish)
	//   OpenCL 13. Release resources (Release on every object)
	//   SYCL    1. Device selector class (DeviceSelector)
	//   SYCL    2. Queue class (NewQueue)
	//   SYCL    3. Buffer class (NewBuffer / NewBufferFrom)
	//   SYCL    4. Lambda expressions (command-group function with kernel body)
	//   SYCL    5. Submit a SYCL kernel to a queue (Queue.Submit + Handler.ParallelFor)
	//   SYCL    6. Implicit transfers via accessors (Access / AccessRange / Copy*)
	//   SYCL    7. Event class (Event.Wait / Queue.Wait)
	//   SYCL    8. Implicit release via destructors (Buffer.Destroy write-back)
	// on MI100: OpenCL 6 hits, SYCL 6 hits, identical: true
	// OpenCL:
	//   comparer wg=64  launches=48  items=380288 groups=5942 gld=9287340(20945091B) gst=18(42B) cld=0 lld=48612167 lst=546664 atom=18 barrier=380288 alu=97984898 br=4412319/4412325
	//   finder   wg=64  launches=24  items=1048768 groups=16387 gld=2783751(2783751B) gst=378878(947195B) cld=1507604 lld=26131071 lst=1507604 atom=394546 barrier=1048768 alu=48393008 br=3643080/3842664
	// SYCL:
	//   comparer wg=256 launches=48  items=384000 groups=1500 gld=8878676(19923431B) gst=18(42B) cld=0 lld=48612167 lst=138000 atom=18 barrier=384000 alu=97992322 br=4416031/4416037
	//   finder   wg=256 launches=24  items=1051392 groups=4107 gld=2783751(2783751B) gst=378878(947195B) cld=377844 lld=26131071 lst=377844 atom=382925 barrier=1051392 alu=48398256 br=3645704/3845288
}
