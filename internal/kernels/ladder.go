// Package kernels holds the two device kernels of the Cas-OFFinder
// application — "finder", which selects candidate sites containing a
// protospacer-adjacent motif (PAM), and "comparer" (the paper's Listing 1),
// which counts mismatched bases between a guide pattern and each candidate
// site — as Go functions over the execution-model simulator. Both the
// OpenCL-style and SYCL-style frontends execute these same bodies, which is
// what lets the reproduction test the paper's implicit claim that the
// migration is behaviour-preserving.
//
// The comparer comes in five variants: the baseline of Listing 1 plus the
// paper's cumulative optimizations opt1-opt4 (§IV.B). All variants are
// functionally identical; they differ in the memory traffic they generate
// (which the gpu.Stats hooks record) and, through internal/isa, in register
// pressure and occupancy.
package kernels

// ladderOrder is the evaluation order of the degenerate-base comparison
// ladder in Listing 1: the kernel tests the pattern character against each
// code in turn, so the number of conditions (and shared-local-memory reads
// of l_comp[k]) evaluated for one position equals the character's ladder
// position. 'N' does not appear: N positions are excluded from the index
// arrays on the host.
var ladderOrder = []byte("RYSWKMBDHVACGT")

// ladderPos returns how many ladder terms the kernel evaluates for pattern
// code c (its 1-based ladder position, or the full ladder length for a code
// that matches no term).
var ladderPos = func() [256]int {
	var t [256]int
	for i := range t {
		t[i] = len(ladderOrder)
	}
	for i, c := range ladderOrder {
		t[c] = i + 1
		t[c|0x20] = i + 1
	}
	return t
}()

// aluPerTerm is the arithmetic cost accounted per evaluated ladder term
// (a comparison on the pattern character plus one on the genome base).
const aluPerTerm = 2
