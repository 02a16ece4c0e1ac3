package genome

import (
	"encoding/binary"
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

// Byte-broadcast constants of the 8-base groups: a group is loaded as one
// little-endian word, so base i of the group is byte i of the word.
const (
	ones8  = 0x0101010101010101
	fold8  = 0x2020202020202020 // OR-ing it lower-cases every letter
	codes8 = 0x0303030303030303
	allN   = 'n' * ones8
)

// groupCodes returns the 2-bit code of each byte of an 8-base group in that
// byte's low bits, and whether every byte is A, C, G, T or U in either case.
// On the case-folded bytes a, c, g, t, u the code is bit1^bit2 and
// bit2^bit3 (A, C, G, T/U → 0, 1, 2, 3); the group is concrete exactly when
// its folded word, with bit 0 cleared where the code is 3 (t and u), equals
// the word of a, c, g, t those codes name, 0x61 + 2·lo + 6·hi + 0x0b·(lo&hi)
// per byte for code bits hi, lo.
func groupCodes(x uint64) (c uint64, ok bool) {
	c = (x>>1 ^ x>>2) & codes8
	lo, hi := c&ones8, c>>1&ones8
	t := lo & hi
	return c, (x|fold8)&^t == 'a'*ones8+2*lo+6*hi+0x0b*t
}

// gather16 packs the 2-bit code in the low bits of each byte of c into 16
// bits, byte i at bits 2i and up.
func gather16(c uint64) uint64 {
	c = (c | c>>6) & 0x000f000f000f000f
	c = (c | c>>12) & 0x000000ff000000ff
	return (c | c>>24) & 0xffff
}

// NewWordView builds the word view of seq (or rebuilds it into reuse's
// buffers when reuse is non-nil) in one pass over the bytes. U counts as T,
// case is ignored, and every other IUPAC code becomes an unknown lane; a
// byte that is no IUPAC code is an error, after which reuse is partially
// filled and must be rebuilt before use. Scan workers keep one view per
// scratch, so the per-chunk rebuild allocates nothing once warm.
//
// The bytes are read 8 at a time: a group of 8 concrete bases, or of 8
// N/n, is packed with word operations, and any other group (other IUPAC
// codes, a mix, an invalid byte, or the short group at the end) goes
// through laneTable byte by byte, so an error names the same byte and
// offset either way.
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
		for g := 0; g < len(word); g += 8 {
			group := word[g:min(g+8, len(word))]
			if len(group) == 8 {
				x := binary.LittleEndian.Uint64(group)
				if c, ok := groupCodes(x); ok {
					code |= gather16(c) << (2 * g)
					continue
				}
				if x|fold8 == allN {
					unknown |= 0x5555 << (2 * g)
					continue
				}
			}
			for i, b := range group {
				switch c := laneTable[b]; c {
				case laneInvalid:
					return nil, fmt.Errorf("genome: cannot pack invalid code %q at offset %d", b, 32*w+g+i)
				case laneUnknown:
					unknown |= 1 << (2 * (g + i))
				default:
					code |= uint64(c) << (2 * (g + i))
				}
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
