package main

import (
	"fmt"
	"math"
)

// pamPattern is the SpCas9 NRG scaffold every workload searches with.
const pamPattern = "NNNNNNNNNNNNNNNNNNNNNRG"

// simScale is the generated assembly size of the paper tables; it is the
// scale EXPERIMENTS.md was recorded at.
const simScale = 1 << 20

// simDevice is the device the simulator workloads and probes run on.
const simDevice = "MI100"

// daemonClients is the closed loop's client count: the daemon's callers are
// pipelines that wait for a reply, and the box has two cores.
const daemonClients = 2

type workloadKind int

const (
	kindCLI workloadKind = iota
	kindDaemon
	kindSim
)

// workload is one named set of inputs. Op counts follow from -seconds through
// OpsPerSecond, the seed commit's measured rate on the 2-core sizing box:
// they are fixed for a given -seconds, not time-boxed, so two commits serve
// the identical request sequence.
type workload struct {
	Name string
	Why  string
	Kind workloadKind
	// Bases is the genome size; Guides and Mismatches shape one op.
	Bases      int
	Guides     int
	Mismatches int
	// Cart makes the CLI search from a prebuilt artifact.
	Cart bool
	// Engine is the daemon's -engine.
	Engine string
	// OpsPerSecond is ops (per client for the daemon) per second of -seconds.
	OpsPerSecond float64
	// WarmOps run before the measured window (per client for the daemon).
	WarmOps int
	// TracedOps is the size of the in-process traced pass.
	TracedOps int
}

var workloads = []workload{
	{
		Name: "cli-fasta", Kind: kindCLI, Bases: 16_000_000, Guides: 3, Mismatches: 5,
		OpsPerSecond: 1.8, WarmOps: 1, TracedOps: 3,
		Why: "cold CLI path: FASTA parse plus CPU scan per exec; serve, gpu and emit idle, so a CPU scan change must show here",
	},
	{
		Name: "cli-cart", Kind: kindCLI, Bases: 16_000_000, Guides: 3, Mismatches: 5, Cart: true,
		OpsPerSecond: 1.8, WarmOps: 1, TracedOps: 3,
		Why: "warm CLI path: same inputs from a .cart artifact, FASTA parse bypassed; a parser speed-up must not move it",
	},
	{
		Name: "daemon-scan", Kind: kindDaemon, Bases: 4_000_000, Guides: 1, Mismatches: 6, Engine: "cpu",
		OpsPerSecond: 9, WarmOps: 5, TracedOps: 40,
		Why: "serving path with the scan dominating (~25 hits/req): admission, coalescing, warm engine, resident genome",
	},
	{
		Name: "daemon-dense", Kind: kindDaemon, Bases: 500_000, Guides: 1, Mismatches: 12, Engine: "cpu",
		OpsPerSecond: 12, WarmOps: 5, TracedOps: 40,
		Why: "same daemon used the other way round (~9k hits/req): drain, JSON render and per-hit flush dominate, scan does not",
	},
	{
		Name: "daemon-sycl", Kind: kindDaemon, Bases: 1_000_000, Guides: 1, Mismatches: 5, Engine: "sycl",
		OpsPerSecond: 8, WarmOps: 5, TracedOps: 40,
		Why: "simulator stack behind the daemon's serial resilient executor and serialized passes; the CPU scan does nothing",
	},
	{
		Name: "sim-paper", Kind: kindSim, Bases: simScale, Guides: 2, Mismatches: 5,
		OpsPerSecond: 0.5, WarmOps: 0, TracedOps: 1,
		Why: "benchtab Table VIII, what a reader reproducing the paper waits on; the only workload with modelled time",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ops is the measured op count for a run of the given length (per client for
// the daemon workloads).
func (w workload) ops(seconds int) int {
	n := int(math.Round(w.OpsPerSecond * float64(seconds)))
	if n < 3 {
		n = 3
	}
	return n
}

// rng is splitmix64: the benchmark's inputs must be the same bytes for the
// same seed on every Go release, which math/rand does not promise.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG derives an independent stream per (seed, workload, purpose).
func newRNG(seed int64, salt string) *rng {
	r := rng(uint64(seed))
	for _, c := range []byte(salt) {
		r = rng(r.next() ^ uint64(c))
	}
	return &r
}

// randomGuide is a seeded random 20-mer followed by NNN at the PAM positions.
// The 20-mer is a shuffle of five each of A, C, G and T: the hg38-like genome
// is AT-rich (GC 41%), so an unconstrained 20-mer's hit count and compare
// cost swing with its composition, and with three guides an op that swing
// moved op_p50_s by 2-3% from seed to seed. Equal composition keeps the work
// per op equal across seeds.
func randomGuide(r *rng) string {
	b := []byte("AAAAACCCCCGGGGGTTTTTNNN")
	for i := 19; i > 0; i-- {
		j := r.intn(i + 1)
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// guidesFor generates n guides from the stream named by (seed, family). Both
// CLI workloads draw from one family: their outputs must be byte-identical.
func guidesFor(seed int64, family string, n int) []string {
	r := newRNG(seed, family+"/guides")
	out := make([]string, n)
	for i := range out {
		out[i] = randomGuide(r)
	}
	return out
}

// cliInput renders the Cas-OFFinder input file for a CLI op.
func cliInput(genomeDir string, guides []string, mismatches int) []byte {
	s := genomeDir + "\n" + pamPattern + "\n"
	for _, g := range guides {
		s += fmt.Sprintf("%s %d\n", g, mismatches)
	}
	return []byte(s)
}

// searchBody renders one POST /search body for the resident genome "g".
func searchBody(guide string, mismatches int) []byte {
	return []byte(fmt.Sprintf(`{"genome":"g","pattern":%q,"guides":[{"guide":%q,"max_mismatches":%d}]}`,
		pamPattern, guide, mismatches))
}

// sampleIndexes picks k distinct request indexes out of n, seeded, for the
// full oracle check of the daemon workloads.
func sampleIndexes(seed int64, family string, n, k int) []int {
	if k > n {
		k = n
	}
	r := newRNG(seed, family+"/sample")
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := r.intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
