package genome

import (
	"fmt"
	"sort"
	"strings"
)

// Composition summarises an assembly's base content — the properties the
// synthetic profiles are calibrated against (GC content, unresolved
// fraction, soft-masked fraction) and basic contiguity statistics.
type Composition struct {
	TotalBases int64
	Sequences  int

	// Counts of resolved concrete bases (upper- or lower-case).
	A, C, G, T int64
	// N is the count of unresolved bases; OtherIUPAC counts the remaining
	// ambiguity codes.
	N          int64
	OtherIUPAC int64
	// SoftMasked counts lower-case (repeat-masked) bases.
	SoftMasked int64

	// N50 is the standard contiguity metric: the length of the shortest
	// sequence among the largest sequences that together cover half the
	// assembly.
	N50 int
}

// GC returns the G+C fraction of resolved bases.
func (c Composition) GC() float64 {
	resolved := c.A + c.C + c.G + c.T
	if resolved == 0 {
		return 0
	}
	return float64(c.C+c.G) / float64(resolved)
}

// NFraction returns the unresolved fraction of all bases.
func (c Composition) NFraction() float64 {
	if c.TotalBases == 0 {
		return 0
	}
	return float64(c.N) / float64(c.TotalBases)
}

// softMaskFraction returns the lower-case fraction of all bases.
func (c Composition) softMaskFraction() float64 {
	if c.TotalBases == 0 {
		return 0
	}
	return float64(c.SoftMasked) / float64(c.TotalBases)
}

func (c Composition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d sequences, %d bases: GC %.1f%%, N %.1f%%, soft-masked %.1f%%, N50 %d",
		c.Sequences, c.TotalBases, 100*c.GC(), 100*c.NFraction(), 100*c.softMaskFraction(), c.N50)
	return b.String()
}

// Compose computes the composition of an assembly.
func Compose(asm *Assembly) Composition {
	var c Composition
	c.Sequences = len(asm.Sequences)
	lengths := make([]int, 0, len(asm.Sequences))
	for _, seq := range asm.Sequences {
		lengths = append(lengths, len(seq.Data))
		c.TotalBases += int64(len(seq.Data))
		for _, raw := range seq.Data {
			if raw >= 'a' && raw <= 'z' {
				c.SoftMasked++
			}
			switch raw &^ 0x20 {
			case 'A':
				c.A++
			case 'C':
				c.C++
			case 'G':
				c.G++
			case 'T', 'U':
				c.T++
			case 'N':
				c.N++
			default:
				if IsCode(raw) {
					c.OtherIUPAC++
				}
			}
		}
	}
	// N50: accumulate lengths in descending order until half the total.
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	var acc int64
	for _, l := range lengths {
		acc += int64(l)
		if 2*acc >= c.TotalBases {
			c.N50 = l
			break
		}
	}
	return c
}
