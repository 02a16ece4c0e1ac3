package genome

import (
	"fmt"
	"math"
	"math/rand"
)

// Profile parameterises the deterministic synthetic-assembly generator that
// stands in for the UCSC hg19/hg38 downloads (see DESIGN.md §1). The
// generator preserves the properties the search kernels are sensitive to:
// relative assembly sizes, the density of unresolved (N) regions, GC content
// (which sets the density of NGG protospacer-adjacent motifs and therefore
// the comparer-kernel load), and multi-record structure.
type Profile struct {
	// Name labels the assembly ("hg19-like", "hg38-like").
	Name string
	// Seed makes generation reproducible.
	Seed int64
	// Chromosomes lists record names and relative weights; each chromosome's
	// share of TotalBases is proportional to its weight.
	Chromosomes []ChromSpec
	// TotalBases is the generated assembly size.
	TotalBases int
	// FullScaleBases is the size of the real assembly the profile models;
	// the timing model projects measured per-base costs to this size.
	FullScaleBases int64
	// GC is the fraction of G+C among resolved bases.
	GC float64
	// NFraction is the fraction of bases inside unresolved (N) gaps;
	// hg19 carries noticeably more gap sequence than hg38.
	NFraction float64
	// MeanGapLen is the mean length of one N gap.
	MeanGapLen int
	// SoftMask is the fraction of resolved sequence emitted in lower case
	// (repeat-masked), exercising case folding in consumers.
	SoftMask float64
}

// ChromSpec names one synthetic chromosome and its relative size weight.
type ChromSpec struct {
	Name   string
	Weight float64
}

// humanChromWeights approximates the relative sizes of the 24 nuclear
// human chromosomes (chr1 ≈ 249 Mbp … chrY ≈ 57 Mbp).
var humanChromWeights = []ChromSpec{
	{"chr1", 249}, {"chr2", 242}, {"chr3", 198}, {"chr4", 190},
	{"chr5", 182}, {"chr6", 171}, {"chr7", 159}, {"chr8", 145},
	{"chr9", 138}, {"chr10", 134}, {"chr11", 135}, {"chr12", 133},
	{"chr13", 114}, {"chr14", 107}, {"chr15", 102}, {"chr16", 90},
	{"chr17", 83}, {"chr18", 80}, {"chr19", 59}, {"chr20", 64},
	{"chr21", 47}, {"chr22", 51}, {"chrX", 156}, {"chrY", 57},
}

// HG19Like returns a profile modelling the hg19 assembly scaled to
// totalBases generated bases. hg19 has more unresolved gap sequence and
// slightly less searchable content than hg38.
func HG19Like(totalBases int) Profile {
	return Profile{
		Name:           "hg19-like",
		Seed:           19,
		Chromosomes:    humanChromWeights,
		TotalBases:     totalBases,
		FullScaleBases: 3_101_804_739,
		GC:             0.409,
		NFraction:      0.075,
		MeanGapLen:     2500,
		SoftMask:       0.45,
	}
}

// HG38Like returns a profile modelling the hg38 assembly: ~3.5% larger than
// hg19 with most hg19 gaps resolved, so it carries proportionally more
// searchable sequence (and therefore more comparer-kernel work).
func HG38Like(totalBases int) Profile {
	return Profile{
		Name:        "hg38-like",
		Seed:        38,
		Chromosomes: humanChromWeights,
		TotalBases:  totalBases,
		// The UCSC hg38.fa download the paper uses bundles the primary
		// assembly with alternate-loci and patch contigs, which both grows
		// the input and duplicates PAM-dense sequence.
		FullScaleBases: 3_313_480_000,
		GC:             0.412,
		NFraction:      0.049,
		MeanGapLen:     1200,
		SoftMask:       0.47,
	}
}

// Generate builds the synthetic assembly described by the profile. The same
// profile always yields the same bytes: those math/rand's source seeded with
// p.Seed has always produced (see stream and generateSeq).
func Generate(p Profile) (*Assembly, error) {
	if p.TotalBases <= 0 {
		return nil, fmt.Errorf("genome: profile %q: TotalBases must be positive", p.Name)
	}
	if len(p.Chromosomes) == 0 {
		return nil, fmt.Errorf("genome: profile %q: no chromosomes", p.Name)
	}
	if !probability(p.GC) || !probability(p.SoftMask) || !probability(p.NFraction) || p.NFraction == 1 {
		return nil, fmt.Errorf("genome: profile %q: GC/NFraction/SoftMask out of range", p.Name)
	}
	var totalW float64
	for _, c := range p.Chromosomes {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("genome: profile %q: chromosome %s has non-positive weight", p.Name, c.Name)
		}
		totalW += c.Weight
	}
	s := newStream(p.Seed)
	rng := rand.New(s)
	asm := &Assembly{Name: p.Name}
	remaining := p.TotalBases
	for i, c := range p.Chromosomes {
		var n int
		if i == len(p.Chromosomes)-1 {
			n = remaining
		} else {
			n = int(float64(p.TotalBases) * c.Weight / totalW)
			if n > remaining {
				n = remaining
			}
		}
		remaining -= n
		if n <= 0 {
			continue
		}
		asm.Sequences = append(asm.Sequences, &Sequence{
			Name:        c.Name,
			Description: fmt.Sprintf("%s synthetic", p.Name),
			Data:        generateSeq(s, rng, n, p),
		})
	}
	return asm, nil
}

// probability reports whether x is in [0, 1]; NaN is not.
func probability(x float64) bool { return x >= 0 && x <= 1 }

// generateSeq emits n bases: alternating runs of resolved sequence and N
// gaps sized so the expected gap fraction is p.NFraction. rng wraps s.
//
// It makes the draws rand.Rand would make, in the same order: per resolved
// run, ExpFloat64 for its length and Float64 < p.SoftMask; per base,
// Float64 < p.GC, Intn(2) and Float64 < 0.001 (the soft-mask toggle). A
// Float64 compare is an Int63 compare against below(p), and Intn(2) is bit
// 32 of an Int63, as Int31n takes it for a power of two.
func generateSeq(s *stream, rng *rand.Rand, n int, p Profile) []byte {
	out := make([]byte, n)
	meanGap := p.MeanGapLen
	if meanGap <= 0 {
		meanGap = 1000
	}
	// Expected resolved-run length between gaps so that
	// meanGap / (meanGap + meanRun) == NFraction.
	meanRun := n // no gaps when NFraction == 0
	if p.NFraction > 0 {
		meanRun = int(float64(meanGap)*(1-p.NFraction)/p.NFraction + 0.5)
		if meanRun < 1 {
			meanRun = 1
		}
	}
	// Shrink run lengths for short sequences so every record still
	// alternates between resolved runs and gaps many times; the gap/run
	// ratio (and so the expected N fraction) is preserved.
	if limit := n / 25; limit > 0 && meanRun > limit {
		scale := float64(limit) / float64(meanRun)
		meanRun = limit
		if meanGap = int(float64(meanGap) * scale); meanGap < 1 {
			meanGap = 1
		}
	}
	gc, softMask := below(p.GC), below(p.SoftMask)
	inGap := false
	for w := 0; w < n; inGap = !inGap {
		var runLen int
		if inGap {
			runLen = 1 + int(rng.ExpFloat64()*float64(meanGap))
		} else {
			runLen = 1 + int(rng.ExpFloat64()*float64(meanRun))
		}
		run := out[w:min(w+runLen, n)]
		w += len(run)
		if inGap {
			for i := range run {
				run[i] = 'N'
			}
			continue
		}
		var soft byte
		if s.float() < softMask {
			soft = 0x20
		}
		for i := range run {
			isGC := lessBit(s.float(), gc)
			coin := uint64(s.Int63()) >> 32 & 1
			run[i] = "ATGC"[isGC<<1|coin] | soft
			// Toggle soft-masking in sub-runs for realism.
			if s.float() < toggleBelow {
				soft ^= 0x20
			}
		}
	}
	return out
}

// below returns the least x in [0, 2⁶³) with float64(x)/(1<<63) >= p, so
// that for every Int63 draw x, rand.Float64's float64(x)/(1<<63) < p exactly
// when x < below(p). It is 2⁶³−1 for a NaN p or one above 1.
func below(p float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lessBit is 1 if x < y and 0 if not, without a branch: the GC test is
// taken about as often as not. Draws and thresholds are in [0, 2⁶³), so x−y
// does not overflow.
func lessBit(x, y int64) uint64 { return uint64(x-y) >> 63 }

var (
	// oneBelow is the least Int63 draw rand.Float64 rounds to 1 and redraws.
	oneBelow = below(1)
	// toggleBelow is the soft-mask toggle's Float64 < 0.001.
	toggleBelow = below(0.001)
)

// math/rand's seeded source is an additive lagged Fibonacci generator:
// output n is output n−streamLen plus output n−streamTap, mod 2⁶⁴.
const (
	streamLen = 607
	streamTap = 273
	// ringLen is the power of two above streamLen that stream's ring of
	// recent outputs is indexed modulo.
	ringLen = 1024
)

// stream is math/rand's seeded source, continued by a concrete type so that
// a draw is two loads, an add and a store the compiler inlines, not an
// interface call. It returns the values rand.NewSource(seed) returns, in the
// same order (TestStreamMatchesMathRand). It implements rand.Source64, and
// rand.New(s) draws from the same sequence as s's own methods.
type stream struct {
	ring [ringLen]uint64 // output n at ring[n%ringLen], for the last ringLen n
	n    uint            // index of the next output
}

func newStream(seed int64) *stream {
	s := new(stream)
	s.Seed(seed)
	return s
}

// Seed restarts s at rand.NewSource(seed)'s first output. It draws the
// source's first streamLen outputs and runs the recurrence backwards from
// them, out[n−streamLen] = out[n] − out[n−streamTap] for n from
// streamLen−1 down to 0, to find the streamLen terms before output 0.
func (s *stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var first [streamLen]uint64
	for n := range first {
		first[n] = src.Uint64()
	}
	for n := streamLen - 1; n >= 0; n-- {
		var tap uint64
		if n >= streamTap {
			tap = first[n-streamTap]
		} else {
			tap = s.ring[uint(n-streamTap)%ringLen] // a term before output 0, found already
		}
		s.ring[uint(n-streamLen)%ringLen] = first[n] - tap
	}
	s.n = 0
}

func (s *stream) Uint64() uint64 {
	n := s.n
	x := s.ring[(n-streamLen)%ringLen] + s.ring[(n-streamTap)%ringLen]
	s.ring[n%ringLen] = x
	s.n = n + 1
	return x
}

func (s *stream) Int63() int64 { return int64(s.Uint64() & math.MaxInt64) }

// float returns the Int63 draw behind one rand.Float64: it redraws a value
// that rounds to 1, as Float64 does.
func (s *stream) float() int64 {
	for {
		if x := s.Int63(); x < oneBelow {
			return x
		}
	}
}
