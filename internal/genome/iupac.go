// Package genome provides the sequence substrate for the off-target search
// engine: IUPAC nucleotide-code semantics, FASTA input and output for
// single- and multi-sequence files, the 2-bit word view the CPU scan reads
// (built from the sequence bytes in one pass), a genome chunker that splits
// assemblies into device-sized pieces, and a deterministic
// synthetic-assembly generator used in place of the UCSC hg19/hg38
// downloads.
package genome

import "fmt"

// Mask is a 4-bit set over the concrete nucleotides. Bit 0 is A, bit 1 is C,
// bit 2 is G and bit 3 is T. An IUPAC degenerate code denotes the set of
// concrete bases whose bits are present in its mask.
type Mask uint8

// Concrete nucleotide masks.
const (
	MaskA Mask = 1 << iota
	MaskC
	MaskG
	MaskT

	// MaskNone is the empty set: a byte that is not a nucleotide code.
	MaskNone Mask = 0
	// MaskAny is the full set, the mask of the code 'N'.
	MaskAny Mask = MaskA | MaskC | MaskG | MaskT
)

// maskTable maps an upper-case ASCII byte to its IUPAC mask. Bytes that are
// not IUPAC nucleotide codes map to MaskNone.
var maskTable = func() [256]Mask {
	var t [256]Mask
	set := func(b byte, m Mask) {
		t[b] = m
		t[b|0x20] = m // lower case alias
	}
	set('A', MaskA)
	set('C', MaskC)
	set('G', MaskG)
	set('T', MaskT)
	set('U', MaskT) // RNA uracil pairs like thymine
	set('R', MaskA|MaskG)
	set('Y', MaskC|MaskT)
	set('S', MaskC|MaskG)
	set('W', MaskA|MaskT)
	set('K', MaskG|MaskT)
	set('M', MaskA|MaskC)
	set('B', MaskC|MaskG|MaskT)
	set('D', MaskA|MaskG|MaskT)
	set('H', MaskA|MaskC|MaskT)
	set('V', MaskA|MaskC|MaskG)
	set('N', MaskAny)
	return t
}()

// MaskOf returns the IUPAC mask of code b, or MaskNone if b is not a
// nucleotide code. Lower-case codes are accepted.
func MaskOf(b byte) Mask { return maskTable[b] }

// IsCode reports whether b is a valid IUPAC nucleotide code.
func IsCode(b byte) bool { return maskTable[b] != MaskNone }

// IsConcrete reports whether b denotes exactly one nucleotide (A, C, G, T or
// U, in either case).
func IsConcrete(b byte) bool {
	m := maskTable[b]
	return m != MaskNone && m&(m-1) == 0
}

// Matches reports whether a genome base matches a pattern code under the
// Cas-OFFinder convention:
//
//   - a concrete genome base matches if it is a member of the pattern code's
//     IUPAC set (so pattern 'N' matches everything, 'R' matches A and G, …);
//   - an ambiguous genome base (anything with more than one bit set,
//     including 'N') matches only a pattern 'N'. Unresolved assembly
//     positions must not be reported as plausible off-target sites under a
//     permissive pattern.
//   - a byte that is not a nucleotide code never matches.
func Matches(pattern, base byte) bool {
	pm, bm := maskTable[pattern], maskTable[base]
	if pm == MaskNone || bm == MaskNone {
		return false
	}
	if bm&(bm-1) != 0 { // ambiguous genome base
		return pm == MaskAny
	}
	return pm&bm != 0
}

// complementTable maps each IUPAC code to its complement (the code whose
// mask is the base-wise complement of the original's members: A<->T, C<->G).
var complementTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 'N' // placeholder, fixed below for valid codes only
	}
	pairs := map[byte]byte{
		'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C',
		'U': 'A',
		'R': 'Y', 'Y': 'R',
		'S': 'S', 'W': 'W',
		'K': 'M', 'M': 'K',
		'B': 'V', 'V': 'B',
		'D': 'H', 'H': 'D',
		'N': 'N',
	}
	for i := range t {
		b := byte(i)
		up := b &^ 0x20
		c, ok := pairs[up]
		if !ok {
			t[i] = b // non-codes pass through unchanged
			continue
		}
		if b >= 'a' && b <= 'z' {
			t[i] = c | 0x20
		} else {
			t[i] = c
		}
	}
	return t
}()

// ReverseComplement reverses seq in place and complements every code.
func ReverseComplement(seq []byte) {
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = complementTable[seq[j]], complementTable[seq[i]]
	}
	if len(seq)%2 == 1 {
		mid := len(seq) / 2
		seq[mid] = complementTable[seq[mid]]
	}
}

// ReverseComplemented returns a new slice holding the reverse complement of
// seq, leaving seq untouched.
func ReverseComplemented(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = complementTable[b]
	}
	return out
}

// Validate checks that every byte of seq is an IUPAC nucleotide code and
// returns the offset and value of the first offender otherwise.
func Validate(seq []byte) error {
	for i, b := range seq {
		if maskTable[b] == MaskNone {
			return fmt.Errorf("genome: invalid nucleotide code %q at offset %d", b, i)
		}
	}
	return nil
}

// Upper returns seq with every nucleotide code folded to upper case, in a
// new slice. FASTA producers use lower case for soft-masked (repeat)
// regions; the search treats them like ordinary sequence.
func Upper(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		if b >= 'a' && b <= 'z' {
			b &^= 0x20
		}
		out[i] = b
	}
	return out
}
