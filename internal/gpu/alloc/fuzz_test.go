package alloc

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"casoffinder/internal/fault"
)

// FuzzArenaDecode hammers the arena readback boundary — the one place a
// corrupted (or maliciously crafted) device buffer crosses back into host
// control flow. Whatever claim-state bytes arrive, Decode must return
// either a typed SiteArena corruption fault or a geometry that is safe to
// gather from: totals bounded by the arena, every claimed page owned by
// exactly one group, no entry range outside the data buffer. It must never
// panic and never hand back geometry that would missize the entry copy.
// The seed corpus encodes the overflow/corruption taxonomy from
// TestDecodeRejectsCorruption; `make fuzz-regress` grows it.
func FuzzArenaDecode(f *testing.F) {
	np, po := NoPage, PageOverflow
	// seed adds a claim state of words, overflow counter first.
	seed := func(words ...uint32) {
		raw := make([]byte, 0, 4*len(words))
		for _, w := range words {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		f.Add(raw)
	}
	// clean adds a non-overflowed state of cursor, counters and page table.
	clean := func(cursor uint32, count, pageOf []uint32) {
		seed(slices.Concat([]uint32{0, cursor}, count, pageOf)...)
	}
	// Clean shapes: idle, one full page, sparse claims.
	clean(0, []uint32{0, 0}, []uint32{np, np})
	clean(1, []uint32{64, 0}, []uint32{0, np})
	clean(2, []uint32{5, 9, 0}, []uint32{1, 0, np})
	// Overflow shapes: a group past its page, cursor past the arena.
	clean(1, []uint32{70, 0}, []uint32{0, np})
	clean(4, []uint32{64, 64}, []uint32{0, po})
	// The corruption taxonomy.
	clean(5, []uint32{0, 0}, []uint32{np, np}) // cursor past pages
	clean(0, []uint32{3, 0}, []uint32{np, np}) // emitted without a page
	clean(1, []uint32{64, 1}, []uint32{po, 0}) // overflow page, zero counter
	clean(1, []uint32{1, 1}, []uint32{0, 3})   // page past cursor
	clean(1, []uint32{65, 0}, []uint32{0, np}) // counter past page size
	clean(1, []uint32{0, 0}, []uint32{0, np})  // claimed without emitting
	clean(2, []uint32{1, 1}, []uint32{0, 0})   // page claimed twice
	clean(2, []uint32{1, 0}, []uint32{0, np})  // claimed pages unowned
	// Shapes only a single state slice has.
	seed(0, 0)               // no groups
	seed(0, 1, 1, 0, np)     // odd length
	seed(3, 1, 64, 0, po, 0) // PageOverflow, the overflow counter set
	seed(0, 0, 0, po)        // PageOverflow with the overflow counter zero

	const pageSlots, maxPages = 64, 8
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4*(2+2*256) {
			return
		}
		state := make([]uint32, len(raw)/4)
		for i := range state {
			state[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		geo, err := Decode(pageSlots, maxPages, state)
		if err != nil {
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Site != fault.SiteArena {
				t.Fatalf("decode rejection is not a SiteArena fault: %v", err)
			}
			return
		}
		// Admitted geometry must be safe to gather from: pages 0..Claimed-1
		// each carry a count inside the page, and Total is their sum — the
		// exact size of the compacted copy the backends enqueue.
		g := (len(state) - 2) / 2
		if len(state) != 2+2*g {
			t.Fatalf("decoded a %d-word state", len(state))
		}
		if geo.Claimed < 0 || geo.Claimed > maxPages || geo.Claimed > g {
			t.Fatalf("claimed %d pages of %d with %d groups", geo.Claimed, maxPages, g)
		}
		if geo.PageSlots != pageSlots || len(geo.Counts) != geo.Claimed {
			t.Fatalf("geometry %+v does not match %d claimed pages of %d slots",
				geo, geo.Claimed, pageSlots)
		}
		total := 0
		for page, n := range geo.Counts {
			if n < 1 || n > pageSlots {
				t.Fatalf("page %d count %d outside (0, %d]", page, n, pageSlots)
			}
			total += n
		}
		if total != geo.Total {
			t.Fatalf("Total %d != sum of page counts %d", geo.Total, total)
		}
		data := make([]uint32, maxPages*pageSlots)
		if got := Gather(geo, data, nil); len(got) != geo.Total {
			t.Fatalf("Gather returned %d entries for Total %d", len(got), geo.Total)
		}
	})
}
