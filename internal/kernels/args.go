package kernels

import (
	"errors"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu/alloc"
)

// Flag values written by the finder and consumed by the comparer: which
// strand(s) of a candidate site carry the PAM.
const (
	// FlagBoth marks a site whose PAM matches on both strands.
	FlagBoth byte = 0
	// FlagForward marks a forward-strand (+) PAM match.
	FlagForward byte = 1
	// FlagReverse marks a reverse-strand (-) PAM match.
	FlagReverse byte = 2
)

// Directions reported per off-target entry.
const (
	DirForward byte = '+'
	DirReverse byte = '-'
)

// ErrBadPattern marks a pattern the host-side preparation rejects.
var ErrBadPattern = errors.New("kernels: invalid pattern")

// PatternPair is the host-prepared device view of one search or comparison
// pattern: the forward pattern and its reverse complement, each of length
// PatternLen, concatenated ("plen × 2 ... two patterns" in §IV.B), plus the
// -1-terminated index arrays listing the non-N positions the kernels
// actually test.
type PatternPair struct {
	// Codes holds 2*PatternLen IUPAC codes: forward in [0, PatternLen),
	// reverse complement in [PatternLen, 2*PatternLen).
	Codes []byte
	// Index holds 2*PatternLen entries; Index[0:PatternLen] lists the
	// positions of non-N forward codes terminated by -1, likewise
	// Index[PatternLen:] for the reverse complement.
	Index []int32
	// PatternLen is the length of one pattern.
	PatternLen int
}

// NewPatternPair uppercases and validates pattern, builds its reverse
// complement, and derives both index arrays.
func NewPatternPair(pattern []byte) (*PatternPair, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadPattern)
	}
	fwd := genome.Upper(pattern)
	if err := genome.Validate(fwd); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPattern, err)
	}
	plen := len(fwd)
	rev := genome.ReverseComplemented(fwd)
	p := &PatternPair{
		Codes:      make([]byte, 2*plen),
		Index:      make([]int32, 2*plen),
		PatternLen: plen,
	}
	copy(p.Codes[:plen], fwd)
	copy(p.Codes[plen:], rev)
	fillIndex := func(dst []int32, codes []byte) {
		n := 0
		for i, c := range codes {
			if c != 'N' {
				dst[n] = int32(i)
				n++
			}
		}
		if n < len(dst) {
			dst[n] = -1
		}
	}
	fillIndex(p.Index[:plen], fwd)
	fillIndex(p.Index[plen:], rev)
	return p, nil
}

// validateArena checks the output arena bound into a kernel launch against
// the data arrays it indexes: outs holds the length of every page-strided
// entry array, which must cover every provisioned slot.
func validateArena(kernel string, a *alloc.Device, outs ...int) error {
	switch {
	case a == nil:
		return fmt.Errorf("kernels: %s: nil output arena", kernel)
	case a.PageSlots < 1:
		return fmt.Errorf("kernels: %s: arena page of %d slots", kernel, a.PageSlots)
	case a.Pages < 1:
		return fmt.Errorf("kernels: %s: arena of %d pages", kernel, a.Pages)
	case a.Cursor == nil || a.Overflow == nil:
		return fmt.Errorf("kernels: %s: arena missing cursor or overflow counter", kernel)
	case len(a.Count) < 1 || len(a.PageOf) != len(a.Count):
		return fmt.Errorf("kernels: %s: arena group tables of %d counters and %d pages",
			kernel, len(a.Count), len(a.PageOf))
	}
	slots := a.Pages * a.PageSlots
	for _, n := range outs {
		if n < slots {
			return fmt.Errorf("kernels: %s: output array of %d smaller than the %d arena slots", kernel, n, slots)
		}
	}
	return nil
}

// FinderArgs are the arguments of the finder kernel: it scans every
// candidate position of a chunk for the PAM pattern and compacts matching
// loci (and their strand flags) into pages of the output arena, claimed
// per work-group through the arena's atomic page cursor.
type FinderArgs struct {
	// Chr is the chunk sequence, body plus overlap. Soft-masked lower-case
	// bases are accepted; the IUPAC match tables fold case.
	Chr []byte
	// Pattern is the PAM search pattern pair.
	Pattern *PatternPair
	// Sites is the number of candidate site starts (the chunk body).
	Sites int
	// Loci receives the matching positions, page-strided by the arena;
	// capacity must cover every provisioned arena slot.
	Loci []uint32
	// Flags receives the strand flag per matching position, parallel to
	// Loci.
	Flags []byte
	// Arena is the output sub-allocator: work-items claim one slot per
	// emitted entry; exhaustion is counted in Arena.Overflow and the host
	// refits the arena and relaunches.
	Arena *alloc.Device
}

func (a *FinderArgs) validate() error {
	switch {
	case a.Pattern == nil:
		return errors.New("kernels: finder: nil pattern")
	case a.Sites < 0 || a.Sites+a.Pattern.PatternLen-1 > len(a.Chr):
		return fmt.Errorf("kernels: finder: %d sites of length %d exceed chunk of %d",
			a.Sites, a.Pattern.PatternLen, len(a.Chr))
	}
	return validateArena("finder", a.Arena, len(a.Loci), len(a.Flags))
}

// ComparerArgs are the arguments of the comparer kernel (Listing 1): for
// each candidate locus it counts mismatches between the guide pattern and
// the reference, on the strands the finder flagged, and compacts entries
// whose mismatch count is within the threshold.
type ComparerArgs struct {
	// Chr is the chunk sequence the loci index into.
	Chr []byte
	// Loci are the candidate positions produced by the finder.
	Loci []uint32
	// Flags are the strand flags parallel to Loci.
	Flags []byte
	// LociCount is the number of valid entries in Loci/Flags.
	LociCount uint32
	// Guide is the guide comparison pattern pair ("comp"/"comp_index").
	Guide *PatternPair
	// Threshold is the maximum mismatch count reported.
	Threshold uint16
	// MMLoci, MMCount and Direction receive one entry per reported site,
	// page-strided by the arena; capacity must cover every provisioned
	// arena slot.
	MMLoci    []uint32
	MMCount   []uint16
	Direction []byte
	// Arena is the output sub-allocator replacing the flat "entrycount"
	// cursor of Listing 1: work-items claim one slot per passing entry.
	Arena *alloc.Device
}

func (a *ComparerArgs) validate() error {
	switch {
	case a.Guide == nil:
		return errors.New("kernels: comparer: nil guide")
	case int(a.LociCount) > len(a.Loci) || int(a.LociCount) > len(a.Flags):
		return fmt.Errorf("kernels: comparer: count %d exceeds loci arrays", a.LociCount)
	}
	return validateArena("comparer", a.Arena, len(a.MMLoci), len(a.MMCount), len(a.Direction))
}
