package kernels

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/gpu/device"
)

// mismatchRows returns the table whose [code][base] entry is 1 when the
// genome base fails to match the pattern code — !genome.Matches, the
// Listing 1 ladder's verdict — and 0 when it matches. The byte walks below,
// the oracles of both group bodies, read their rows from it.
var mismatchRows = sync.OnceValue(func() *[256][256]uint8 {
	t := new([256][256]uint8)
	for c := range t {
		for b := range t[c] {
			if !genome.Matches(byte(c), byte(b)) {
				t[c][b] = 1
			}
		}
	}
	return t
})

// term is one evaluated index entry of a strand: the entry's offset into the
// window and the mismatch row of the pattern code there.
type term struct {
	k   int
	row *[256]uint8
}

// walk is the comparer's per-entry walk, the oracle of wordExit: it compares
// one strand's terms with the genome at pos, adding one mismatchRows byte
// per evaluated entry, and returns the exit the item left by — len(terms),
// the plan's last exit, when the walk completed — and the mismatches
// counted up to it.
func walk(terms []term, chr []byte, pos, threshold int) (exit, mm int) {
	for j, t := range terms {
		mm += int(t.row[chr[pos+t.k]])
		if mm > threshold {
			return j, mm
		}
	}
	return len(terms), mm
}

// walkBlock is the finder's walk over the bytes, the oracle of walkLanes: the
// walk at threshold zero for the block of sites b, b+1, … whose lanes are set
// in live (bit l is site b+l; at most 64, from bit 0 up). Each term's
// mismatching live lanes leave by its exit and drop out; the walk stops when
// no lane is left. It adds the lanes' exits to hist and returns the lanes
// that completed the walk.
func walkBlock(terms []term, chr []byte, b int, live uint64, hist []int64) uint64 {
	w := bits.Len64(live)
	for j, t := range terms {
		mm := laneMask(t.row, chr[b+t.k:b+t.k+w]) & live
		hist[j] += int64(bits.OnesCount64(mm))
		if live &^= mm; live == 0 {
			return 0
		}
	}
	hist[len(terms)] += int64(bits.OnesCount64(live))
	return live
}

// laneMask returns the bits row[win[l]] << l for the window's lanes l, eight
// lanes per step.
func laneMask(row *[256]uint8, win []byte) (mm uint64) {
	l := 0
	for ; l+8 <= len(win); l += 8 {
		c := win[l : l+8 : l+8]
		mm |= (uint64(row[c[0]]) | uint64(row[c[1]])<<1 | uint64(row[c[2]])<<2 | uint64(row[c[3]])<<3 |
			uint64(row[c[4]])<<4 | uint64(row[c[5]])<<5 | uint64(row[c[6]])<<6 | uint64(row[c[7]])<<7) << l
	}
	for ; l < len(win); l++ {
		mm |= uint64(row[win[l]]) << l
	}
	return mm
}

// TestFinderLanesMatchWalk is walkLanes' exhaustive oracle: every byte value
// as the pattern code of an indexed entry (codes that are no nucleotide, N
// and lower case included; the entry is evaluated whatever its code)
// against every byte value as the genome base it reads, at every lane of
// both halves of a 64-site block, must drop the lanes walkBlock drops, at
// the same entries, and complete the same ones; so must partial blocks of
// 1, 31, 32, 33 and 63 sites at their first and last lane and the lane
// past them, which is not live but whose byte the live lanes' later
// entries read. The entry under test is the pattern's second;
// the block's first site sits at no word boundary of the view, and the
// bases around the one under test mix concrete, soft-masked, ambiguous and
// invalid bytes, so the other entries drop and keep lanes both ways.
func TestFinderLanesMatchWalk(t *testing.T) {
	const pos, at = 13, 2 // the block's first site; the entry under test
	rows := mismatchRows()
	codes := []byte("GNxRNT")
	idx := []int32{0, at, 3, 5}
	terms := make([]term, len(idx))
	for j, k := range idx {
		terms[j] = term{int(k), &rows[codes[k]]}
	}
	rng := rand.New(rand.NewSource(56))
	bg := randomCodes(rng, "ACGTAGAGTTTacgtNRyx\x00", pos+64+len(codes))
	view := new(genome.WordView)
	want, got := make([]int64, len(idx)+1), make([]int64, len(idx)+1)
	for lane := 0; lane < 64; lane++ {
		seq := slices.Clone(bg)
		seq[pos+lane] = 'G' // the lane passes entry 0 and reaches the one under test
		for b := 0; b < 256; b++ {
			seq[pos+lane+at] = byte(b)
			genome.NewWordView(seq, view)
			for c := 0; c < 256; c++ {
				codes[at], terms[1].row = byte(c), &rows[c]
				for _, w := range []int{1, 31, 32, 33, 63, 64} {
					if w < 64 && lane != 0 && lane != w-1 && lane != w {
						continue
					}
					clear(want)
					clear(got)
					done := walkBlock(terms, seq, pos, ^uint64(0)>>(64-w), want)
					for h := 0; 32*h < w; h++ {
						live := uint64(genome.LaneMask) >> (64 - 2*min(w-32*h, 32))
						half := walkLanes(idx, codes, view, pos+32*h, live, got)
						for i := 0; i < 32; i++ {
							if half>>(2*i)&1 != done>>(32*h+i)&1 {
								t.Fatalf("code %q vs genome %q at lane %d of a %d-site block: site %d completes %v, walkBlock %v",
									c, b, lane, w, 32*h+i, half>>(2*i)&1 == 1, done>>(32*h+i)&1 == 1)
							}
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("code %q vs genome %q at lane %d of a %d-site block: exits %v, walkBlock %v", c, b, lane, w, got, want)
					}
				}
			}
		}
	}
}

// TestWordExitMatchesWalk is wordExit's exhaustive oracle: every byte value
// as the pattern code of every lane of a one-word and a two-word pattern
// (codes that are no nucleotide, N and lower case included; the lane is
// indexed whatever its code) against every byte value as the genome base
// there, at every threshold from 0 to the evaluated-lane count, must leave
// by walk's exit with walk's count. The other lanes mix single-base,
// degenerate and unindexed N codes over a genome that matches them but for
// a few ambiguous, invalid and wrong bases, read at an offset that is no
// word boundary. Every threshold from the walk's full count up completes
// the walk alike, so of those only the count and the last are run.
func TestWordExitMatchesWalk(t *testing.T) {
	const off = 13
	rows := mismatchRows()
	rng := rand.New(rand.NewSource(54))
	view := new(genome.WordView)
	for _, plen := range []int{9, 37} {
		pat := randomCodes(rng, "ACGTRYSWKMBDHVNacgt", plen)
		seq := randomCodes(rng, "ACGTacgtNRyx\x00", off+plen)
		for k, code := range pat {
			if code != 'N' { // a matching base: the lowest of the code's set
				seq[off+k] = "ACGT"[bits.TrailingZeros8(uint8(genome.MaskOf(code)))]
			}
		}
		for _, k := range rng.Perm(plen)[:1+plen/16] {
			seq[off+k] = "xNn\x00"[rng.Intn(4)]
		}
		words, bgWords := make([]genome.GuideWord, (plen+31)/32), make([]genome.GuideWord, (plen+31)/32)
		for lane := 0; lane < plen; lane++ {
			// Every lane but this one as the background has it; this one's
			// term, at its rank, and word lane are rewritten per code.
			var terms []term
			at := -1
			clear(bgWords)
			for k, code := range pat {
				if k == lane {
					at = len(terms)
					terms = append(terms, term{k: k})
				} else if code != 'N' {
					terms = append(terms, term{k, &rows[code]})
					bgWords[k>>5].Add(k, genome.MaskOf(code))
				}
			}
			bgBase := seq[off+lane]
			for b := 0; b < 256; b++ {
				seq[off+lane] = byte(b)
				genome.NewWordView(seq, view)
				for c := 0; c < 256; c++ {
					terms[at].row = &rows[c]
					copy(words, bgWords)
					words[lane>>5].Add(lane, genome.MaskOf(byte(c)))
					_, total := walk(terms, seq, off, len(terms))
					for th := 0; th <= len(terms); th++ {
						if th > total {
							th = len(terms)
						}
						e, mm := wordExit(words, view, off, th)
						we, wmm := walk(terms, seq, off, th)
						if e != we || mm != wmm {
							t.Fatalf("code %q vs genome %q at lane %d of %q over %q, threshold %d: wordExit (%d, %d), walk (%d, %d)",
								c, b, lane, pat, seq[off:], th, e, mm, we, wmm)
						}
					}
				}
			}
			seq[off+lane] = bgBase
		}
	}
}

// comparerLaunch runs the opt3 comparer over chr for guide at loci, every
// locus flagged on both strands, in groups of wg, plus one group past the
// loci arrays, whose items have nothing to score. The view holds chr at
// base 5, as an artifact's resident view holds a chunk, with bases past
// its end, so only the kernel's own check stops a window past chr.
func comparerLaunch(t *testing.T, chr []byte, guide string, loci []uint32, wg int) ([]uint32, error) {
	t.Helper()
	gd, err := NewPatternPair([]byte(guide))
	if err != nil {
		t.Fatal(err)
	}
	view := viewOf([]byte("ACGTA" + string(chr) + strings.Repeat("A", 64)))
	view.Base = 5
	groups := (len(loci)+wg-1)/wg + 1
	layout := alloc.WorstCase(groups, 2*wg)
	_, arena := newArena(layout)
	a := &ComparerArgs{
		Chr: chr, ChunkView: view, Loci: loci, Flags: make([]byte, len(loci)), LociCount: uint32(len(loci)),
		Guide: gd, Threshold: uint16(gd.PatternLen),
		MMLoci:    make([]uint32, layout.Slots()),
		MMCount:   make([]uint16, layout.Slots()),
		Direction: make([]byte, layout.Slots()),
		Arena:     arena,
	}
	k, err := NewComparer(Opt3, a)
	if err != nil {
		return nil, err
	}
	_, err = gpu.New(device.MI100(), gpu.WithWorkers(2)).Launch(gpu.LaunchSpec{
		Name: ComparerKernelName(Opt3), Global: groups * wg, Local: wg,
		Phases: func() []gpu.Phase {
			return k.Phases(make([]byte, 2*gd.PatternLen), make([]int32, 2*gd.PatternLen))
		},
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	return gatherGroups(arena, a.MMLoci), nil
}

// TestComparerWindowPastChunk pins that a locus whose window runs past Chr
// fails NewComparer with ErrWindowPastChunk naming the locus, whether it
// leads its group, follows others or sits in an unordered group; the last
// in-range window passes, and so does a group past the end of the loci.
func TestComparerWindowPastChunk(t *testing.T) {
	chr := []byte(strings.Repeat("ACGTTGCA", 8)) // 64 bases
	const guide = "ACGTNNNN"                     // 8 bases: the last window starts at 56
	for _, loci := range [][]uint32{{57}, {50, 52, 57}, {3, 60, 1}, {0, 8, 16, 24, 32, 40, 48, 1 << 31}} {
		bad := slices.MaxFunc(loci, func(a, b uint32) int { return cmp.Compare(a, b) })
		_, err := comparerLaunch(t, chr, guide, loci, 4)
		if !errors.Is(err, ErrWindowPastChunk) || !strings.Contains(err.Error(), fmt.Sprintf("at locus %d runs past the 64-base chunk", bad)) {
			t.Errorf("loci %v: NewComparer error %v, want ErrWindowPastChunk naming locus %d", loci, err, bad)
		}
	}
	// Every window fits: both strands of every locus are scored (the
	// threshold is the guide length), in and out of order, sparse and dense.
	loci := []uint32{56, 0, 1, 2, 40, 3, 56, 20}
	hits, err := comparerLaunch(t, chr, guide, loci, 3)
	if err != nil {
		t.Fatalf("in-range loci: %v", err)
	}
	if len(hits) != 2*len(loci) {
		t.Errorf("in-range loci: %d entries, want %d", len(hits), 2*len(loci))
	}
}

// TestPlanRejectsUnorderedIndex pins planStrand's ascending-index rule for
// both kernels: NewPatternPair only produces ascending index arrays, and
// the comparer's exit is a lane's rank in position order.
func TestPlanRejectsUnorderedIndex(t *testing.T) {
	for name, idx := range map[string][]int32{
		"descending": {2, 0, -1, -1, 0, 1, 2, -1},
		"repeated":   {0, 1, 2, -1, 0, 1, 1, -1},
	} {
		p := &PatternPair{Codes: []byte("ACGTACGT"), Index: idx, PatternLen: 4}
		_, fArena := newArena(alloc.WorstCase(1, 5))
		_, cArena := newArena(alloc.WorstCase(1, 2))
		for kernel, build := range map[string]func() error{
			"finder": func() error {
				_, err := NewFinder(&FinderArgs{Chr: []byte("ACGTACGT"), ChunkView: viewOf([]byte("ACGTACGT")), Pattern: p, Sites: 5,
					Loci: make([]uint32, 5), Flags: make([]byte, 5), Arena: fArena})
				return err
			},
			"comparer": func() error {
				_, err := NewComparer(Opt3, &ComparerArgs{Chr: []byte("ACGTACGT"), ChunkView: viewOf([]byte("ACGTACGT")), Guide: p,
					MMLoci: make([]uint32, 2), MMCount: make([]uint16, 2), Direction: make([]byte, 2),
					Arena: cArena})
				return err
			},
		} {
			if err := build(); err == nil || !strings.Contains(err.Error(), "must ascend") {
				t.Errorf("%s, %s index: error %v, want an ascending-order rejection", name, kernel, err)
			}
		}
	}
}
