package genome

import (
	"fmt"
	"math/bits"
	"slices"
)

// LaneMask has the low bit of every 2-bit base lane set. SWAR routines use
// it to broadcast a 2-bit code across a word and to collapse per-lane
// comparison planes into one bit per base.
const LaneMask = 0x5555555555555555

// WordView is the word-parallel form of a sequence, the 2-bit format the
// scan reads: 32 bases per uint64 (base i at bits 2·(i mod 32) and up,
// A,C,G,T = 0..3), plus a parallel array of unknown lanes where bit
// 2·(i mod 32) is set when base i was ambiguous. Both arrays carry one
// padding word, and every lane at or past Len is marked unknown, so a
// shifted window load never needs a bounds branch and out-of-range lanes
// can never match a concrete pattern position.
type WordView struct {
	n       int
	codes   []uint64
	unknown []uint64
}

// Entries of laneTable: a concrete base maps to its 2-bit code, any other
// IUPAC code to laneUnknown (code A, lane unknown), any other byte to
// laneInvalid.
const (
	laneUnknown = 4
	laneInvalid = 5
)

var laneTable = func() [256]byte {
	var t [256]byte
	for b := range t {
		switch m := MaskOf(byte(b)); {
		case m == MaskNone:
			t[b] = laneInvalid
		case !IsConcrete(byte(b)):
			t[b] = laneUnknown
		default:
			t[b] = byte(bits.TrailingZeros8(uint8(m)))
		}
	}
	return t
}()

// NewWordView builds the word view of seq (or rebuilds it into reuse's
// buffers when reuse is non-nil) in one pass over the bytes. U counts as T,
// case is ignored, and every other IUPAC code becomes an unknown lane; a
// byte that is no IUPAC code is an error, after which reuse is partially
// filled and must be rebuilt before use. Scan workers keep one view per
// scratch, so the per-chunk rebuild allocates nothing once warm.
func NewWordView(seq []byte, reuse *WordView) (*WordView, error) {
	v := reuse
	if v == nil {
		v = new(WordView)
	}
	dw := (len(seq) + 31) / 32
	v.codes = slices.Grow(v.codes[:0], dw+1)[:dw+1]
	v.unknown = slices.Grow(v.unknown[:0], dw+1)[:dw+1]
	v.n = len(seq)
	for w := 0; w < dw; w++ {
		var code, unknown uint64
		word := seq[32*w : min(32*w+32, len(seq))]
		for i, b := range word {
			switch c := laneTable[b]; c {
			case laneInvalid:
				return nil, fmt.Errorf("genome: cannot pack invalid code %q at offset %d", b, 32*w+i)
			case laneUnknown:
				unknown |= 1 << (2 * i)
			default:
				code |= uint64(c) << (2 * i)
			}
		}
		if r := len(word); r < 32 {
			unknown |= LaneMask << (2 * r)
		}
		v.codes[w], v.unknown[w] = code, unknown
	}
	v.codes[dw], v.unknown[dw] = 0, LaneMask
	return v, nil
}

// Len returns the number of bases the view covers.
func (v *WordView) Len() int { return v.n }

// Window returns the 32-base window starting at pos as a code word and an
// unknown-lane word: lane i holds base pos+i. pos must be in [0, Len);
// lanes that fall at or past Len come back marked unknown.
func (v *WordView) Window(pos int) (code, unknown uint64) {
	w := pos >> 5
	sh := uint(pos&31) * 2
	code = v.codes[w] >> sh
	unknown = v.unknown[w] >> sh
	if sh != 0 {
		code |= v.codes[w+1] << (64 - sh)
		unknown |= v.unknown[w+1] << (64 - sh)
	}
	return code, unknown
}
