package kernels

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/gpu/device"
)

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
	tile := new(genome.WordView)
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
				genome.NewWordView(seq, tile)
				for c := 0; c < 256; c++ {
					terms[at].row = &rows[c]
					copy(words, bgWords)
					words[lane>>5].Add(lane, genome.MaskOf(byte(c)))
					_, total := walk(terms, seq, off, len(terms))
					for th := 0; th <= len(terms); th++ {
						if th > total {
							th = len(terms)
						}
						e, mm := wordExit(words, tile, off, th)
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
// loci arrays, whose items have nothing to score.
func comparerLaunch(t *testing.T, chr []byte, guide string, loci []uint32, wg int) ([]uint32, error) {
	t.Helper()
	gd, err := NewPatternPair([]byte(guide))
	if err != nil {
		t.Fatal(err)
	}
	groups := (len(loci)+wg-1)/wg + 1
	arena := alloc.NewHost(alloc.WorstCase(groups, 2*wg))
	a := &ComparerArgs{
		Chr: chr, Loci: loci, Flags: make([]byte, len(loci)), LociCount: uint32(len(loci)),
		Guide: gd, Threshold: uint16(gd.PatternLen),
		MMLoci:    make([]uint32, arena.Layout.Slots()),
		MMCount:   make([]uint16, arena.Layout.Slots()),
		Direction: make([]byte, arena.Layout.Slots()),
		Arena:     arena.Device(),
	}
	k, err := NewComparer(Opt3, a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gpu.New(device.MI100(), gpu.WithWorkers(2)).Launch(gpu.LaunchSpec{
		Name: ComparerKernelName(Opt3), Global: groups * wg, Local: wg,
		Phases: func() []gpu.Phase {
			return k.Phases(make([]byte, 2*gd.PatternLen), make([]int32, 2*gd.PatternLen))
		},
	})
	if err != nil {
		return nil, err
	}
	return gatherGroups(arena, a.MMLoci), nil
}

// TestComparerWindowPastChunk pins that a locus whose window runs past Chr
// fails the launch, whether it leads its group's tile run, joins one, or
// sits in an unordered group; the last in-range window passes, and so does
// a group past the end of the loci.
func TestComparerWindowPastChunk(t *testing.T) {
	chr := []byte(strings.Repeat("ACGTTGCA", 8)) // 64 bases
	const guide = "ACGTNNNN"                     // 8 bases: the last window starts at 56
	for _, loci := range [][]uint32{{57}, {50, 52, 57}, {3, 60, 1}, {0, 8, 16, 24, 32, 40, 48, 1 << 31}} {
		if _, err := comparerLaunch(t, chr, guide, loci, 4); err == nil || !strings.Contains(err.Error(), "past the 64-base chunk") {
			t.Errorf("loci %v: launch error %v, want a window past the chunk", loci, err)
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
		for kernel, build := range map[string]func() error{
			"finder": func() error {
				_, err := NewFinder(&FinderArgs{Chr: []byte("ACGTACGT"), Pattern: p, Sites: 5,
					Loci: make([]uint32, 5), Flags: make([]byte, 5), Arena: alloc.NewHost(alloc.WorstCase(1, 5)).Device()})
				return err
			},
			"comparer": func() error {
				_, err := NewComparer(Opt3, &ComparerArgs{Chr: []byte("ACGTACGT"), Guide: p,
					MMLoci: make([]uint32, 2), MMCount: make([]uint16, 2), Direction: make([]byte, 2),
					Arena: alloc.NewHost(alloc.WorstCase(1, 2)).Device()})
				return err
			},
		} {
			if err := build(); err == nil || !strings.Contains(err.Error(), "must ascend") {
				t.Errorf("%s, %s index: error %v, want an ascending-order rejection", name, kernel, err)
			}
		}
	}
}
