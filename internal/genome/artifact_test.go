package genome

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casoffinder/internal/fault"
)

// artifactFixture builds an assembly exercising the packing edge cases:
// word-boundary lengths, soft-masked lower case, N runs, non-N ambiguity
// codes (which survive only in the raw bytes, not the 2-bit planes) and a
// description string.
func artifactFixture() *Assembly {
	return &Assembly{
		Name: "fixture",
		Sequences: []*Sequence{
			{Name: "chr31", Data: []byte("ACGTACGTACGTACGTACGTACGTACGTACG")},                                  // 31: sub-word tail
			{Name: "chr32", Data: []byte("acgtacgtacgtacgtacgtacgtacgtacgt")},                                 // 32: exact word, soft-masked
			{Name: "chr33", Description: "with desc", Data: []byte("ACGTNNNNRYSWKMACGTACGTACGTACGTACG")},      // 33: ambiguity codes
			{Name: "chr96", Data: bytes.Repeat([]byte("ACGTTGCANNGATTACAGATTACAGATTACAn"), 3)},                // 96: multi-word
			{Name: "chrX", Data: []byte("GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG")}, // 65
		},
	}
}

// buildFixtureArtifact packs the fixture with a synthetic PAM shard (every
// 7th position, alternating strand bits) so shard round-tripping and range
// queries have non-trivial data without depending on the search layer.
func buildFixtureArtifact(t *testing.T) *Artifact {
	t.Helper()
	art, err := BuildArtifact(artifactFixture(), "NNNNNNNNNNNNNNNNNNNNNRG", 23, func(si int, v *WordView) []PAMEntry {
		var pam []PAMEntry
		for pos := 0; pos+23 <= v.Len(); pos += 7 {
			var strand uint8 = PAMFwd
			if pos%14 == 0 {
				strand = PAMRev
			}
			if pos%21 == 0 {
				strand = PAMFwd | PAMRev
			}
			pam = append(pam, NewPAMEntry(pos, strand))
		}
		return pam
	})
	if err != nil {
		t.Fatalf("BuildArtifact: %v", err)
	}
	return art
}

func TestArtifactRoundTrip(t *testing.T) {
	art := buildFixtureArtifact(t)
	img := art.Encode()
	got, err := ReadArtifact(img)
	if err != nil {
		t.Fatalf("ReadArtifact: %v", err)
	}
	if !art.Equal(got) {
		t.Fatal("decoded artifact differs from the built one")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify on a clean image: %v", err)
	}
	if got.Name() != "fixture" || got.PatternLen() != 23 || !got.HasPAMIndex("nnnnnnnnnnnnnnnnnnnnnrg") {
		t.Errorf("metadata: name=%q plen=%d pattern=%q", got.Name(), got.PatternLen(), got.Pattern())
	}
	if got.HasPAMIndex("NNNNNNNNNNNNNNNNNNNNNGG") {
		t.Error("HasPAMIndex matched a different scaffold")
	}

	// The decoded word views must equal a fresh build from the bytes.
	asm := artifactFixture()
	for si, seq := range asm.Sequences {
		want, err := NewWordView(seq.Data, nil)
		if err != nil {
			t.Fatal(err)
		}
		have := got.View(si)
		if have.Len() != want.Len() || len(have.codes) != len(want.codes) {
			t.Fatalf("seq %d: view geometry %d/%d, want %d/%d", si, have.Len(), len(have.codes), want.Len(), len(want.codes))
		}
		for pos := 0; pos < want.Len(); pos++ {
			hc, hu := have.Window(pos)
			wc, wu := want.Window(pos)
			if hc != wc || hu != wu {
				t.Fatalf("seq %d pos %d: Window = (%#x, %#x), want (%#x, %#x)", si, pos, hc, hu, wc, wu)
			}
		}
	}

	// The assembly view carries the raw bytes verbatim, aliases the loaded
	// image (zero copy) and links back to the artifact.
	dec := got.Assembly()
	if dec.Artifact() != got {
		t.Error("Assembly().Artifact() does not link back")
	}
	if dec.Name != "fixture" || len(dec.Sequences) != len(asm.Sequences) {
		t.Fatalf("assembly shape: %q, %d sequences", dec.Name, len(dec.Sequences))
	}
	for si, seq := range dec.Sequences {
		want := asm.Sequences[si]
		if seq.Name != want.Name || seq.Description != want.Description || !bytes.Equal(seq.Data, want.Data) {
			t.Errorf("seq %d did not round-trip", si)
		}
		if len(seq.Data) > 0 && &seq.Data[0] != &got.seqs[si].raw[0] {
			t.Errorf("seq %d: Data does not alias the artifact payload", si)
		}
	}
	if dec != got.Assembly() {
		t.Error("Assembly() is not memoized")
	}
}

func TestArtifactFileRoundTrip(t *testing.T) {
	art := buildFixtureArtifact(t)
	path := filepath.Join(t.TempDir(), "fixture.cart")
	if err := art.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	if !art.Equal(got) {
		t.Fatal("file round trip lost data")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if _, err := LoadArtifact(filepath.Join(t.TempDir(), "missing.cart")); err == nil {
		t.Error("LoadArtifact(missing) = nil error")
	}
}

// residentFileMB is this process's file-backed resident set, which a mapped
// artifact's pages count towards once they are faulted in.
func residentFileMB(t *testing.T) float64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "RssFile:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				t.Fatalf("RssFile line %q: %v", line, err)
			}
			return kb / 1024
		}
	}
	t.Skip("no RssFile in /proc/self/status")
	return 0
}

// bigArtifactFile writes a 1 Mbase artifact with a PAM entry every fourth
// position (a 3 MB file) and loads it back mapped.
func bigArtifactFile(t *testing.T) *Artifact {
	t.Helper()
	asm := &Assembly{Name: "big", Sequences: []*Sequence{
		{Name: "chr1", Data: bytes.Repeat([]byte("ACGTTGCAGATTACAG"), 1<<16)}, // 1 Mbase
	}}
	art, err := BuildArtifact(asm, "NNNNNNNNNNNNNNNNNNNNNRG", 23, func(si int, v *WordView) []PAMEntry {
		pam := make([]PAMEntry, 0, v.Len()/4)
		for pos := 0; pos+23 <= v.Len(); pos += 4 {
			pam = append(pam, NewPAMEntry(pos, PAMFwd))
		}
		return pam
	})
	if err != nil {
		t.Fatalf("BuildArtifact: %v", err)
	}
	art.Prefault(true) // built in memory: nothing to fault
	path := filepath.Join(t.TempDir(), "big.cart")
	if err := art.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	t.Cleanup(func() { got.Close() })
	return got
}

// TestArtifactPrefault pins that after Prefault a walk over a mapped
// artifact's scan sections faults nothing more in (without it the 3 MB
// file gains 1 MB here), and that Prefault is harmless where there is no
// mapping: built artifacts and closed ones.
func TestArtifactPrefault(t *testing.T) {
	got := bigArtifactFile(t)
	got.Prefault(true)
	before := residentFileMB(t)
	var sum uint64
	s := &got.seqs[0]
	for _, w := range s.view.codes {
		sum += w
	}
	for _, w := range s.view.unknown {
		sum += w
	}
	for _, e := range s.pam {
		sum += uint64(e)
	}
	// RssFile is process-wide: the test binary's own text pages fault in
	// too (seen: 0.07 MB once in ~60 processes), so the bound sits between
	// that and the 0.25 MB of the smallest section Prefault touches.
	if grew := residentFileMB(t) - before; grew > 0.15 {
		t.Errorf("walking the words and shards after Prefault faulted in another %.2f MB (checksum %#x)", grew, sum)
	}
	if err := got.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got.Prefault(true) // the mapping is gone: must not touch it
}

// TestArtifactVerifyReadsFile pins that Verify reads the file, not the
// mapping: checking all 3 MB of a loaded artifact maps no payload page into
// the process.
func TestArtifactVerifyReadsFile(t *testing.T) {
	got := bigArtifactFile(t)
	before := residentFileMB(t)
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The same 0.15 MB allowance for the test binary's own text pages as
	// TestArtifactPrefault; the payload is 20 times that.
	if grew := residentFileMB(t) - before; grew > 0.15 {
		t.Errorf("Verify faulted %.2f MB of the mapping in", grew)
	}
}

// TestArtifactVerifyNamesRegion: one flipped byte in the header or in any
// section kind of a written artifact makes Verify fail with an
// ArtifactCorruptError that names the region, and the file verifies clean
// again once the byte is restored.
func TestArtifactVerifyNamesRegion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fixture.cart")
	if err := buildFixtureArtifact(t).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify on the intact file: %v", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flip := func(off int64) {
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x80
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	s := &got.seqs[3] // chr96: every section non-empty
	for _, r := range []struct {
		name string
		off  int64
	}{
		{"header", fixedHeaderLen + 5}, // the assembly name
		{"raw section", s.off[secRaw] + 50},
		{"codes section", s.off[secCodes] + 9},
		{"unknown section", s.off[secUnknown] + 9},
		{"pam section", s.off[secPAM] + 5},
	} {
		flip(r.off)
		var ce *ArtifactCorruptError
		if err := got.Verify(); !errors.As(err, &ce) || !strings.Contains(ce.Reason, r.name) {
			t.Errorf("flip in the %s: Verify = %v, want an ArtifactCorruptError naming it", r.name, err)
		}
		flip(r.off)
		if err := got.Verify(); err != nil {
			t.Fatalf("after restoring the %s: %v", r.name, err)
		}
	}
}

func TestArtifactPAMRange(t *testing.T) {
	art := buildFixtureArtifact(t)
	for si := 0; si < art.SeqCount(); si++ {
		full := art.PAMRange(si, 0, art.SeqLen(si))
		for i := 1; i < len(full); i++ {
			if full[i].Pos() <= full[i-1].Pos() {
				t.Fatalf("seq %d: shard not strictly ascending at %d", si, i)
			}
		}
		// Adjacent windows must partition the full shard, mirroring how
		// chunk bodies tile a sequence.
		var joined []PAMEntry
		for lo := 0; lo < art.SeqLen(si); lo += 10 {
			hi := lo + 10
			if hi > art.SeqLen(si) {
				hi = art.SeqLen(si)
			}
			joined = append(joined, art.PAMRange(si, lo, hi)...)
		}
		if len(joined) != len(full) {
			t.Fatalf("seq %d: windows joined to %d entries, full range has %d", si, len(joined), len(full))
		}
		for i := range full {
			if joined[i] != full[i] {
				t.Fatalf("seq %d entry %d: windows joined %#x, full %#x", si, i, joined[i], full[i])
			}
		}
	}
	if n := art.PAMCount(); n <= 0 {
		t.Fatalf("PAMCount = %d, want > 0", n)
	}
}

func TestBuildArtifactRejectsDuplicateNames(t *testing.T) {
	asm := &Assembly{Name: "dup", Sequences: []*Sequence{
		{Name: "chr1", Data: []byte("ACGT")},
		{Name: "chr1", Data: []byte("TTTT")},
	}}
	var dup *DuplicateNameError
	if _, err := BuildArtifact(asm, "", 0, nil); !errors.As(err, &dup) {
		t.Fatalf("BuildArtifact(dup) = %v, want DuplicateNameError", err)
	}
}

func TestArtifactCorruption(t *testing.T) {
	img := buildFixtureArtifact(t).Encode()

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		fault.CorruptBytes(bad[:8])
		if _, err := ReadArtifact(bad); !errors.Is(err, ErrArtifactMagic) {
			t.Fatalf("err = %v, want ErrArtifactMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[8:], ArtifactVersion+1)
		binary.LittleEndian.PutUint32(bad[headerSumOff:], headerSumOf(bad[:binary.LittleEndian.Uint64(bad[16:])]))
		var ve *ArtifactVersionError
		if _, err := ReadArtifact(bad); !errors.As(err, &ve) {
			t.Fatalf("err = %v, want ArtifactVersionError", err)
		} else if ve.Got != ArtifactVersion+1 || ve.Want != ArtifactVersion {
			t.Fatalf("version error %+v", ve)
		}
	})
	t.Run("v1", func(t *testing.T) {
		// A version-1 fixed header: magic, version, endian tag, header
		// length, two 64-bit FNV-1a sums (header, payload), pattern length
		// and sequence count, then the name and pattern strings. The
		// version word alone turns it away, before any v1 field is read.
		v1 := []byte(artifactMagic)
		v1 = binary.LittleEndian.AppendUint32(v1, 1)
		v1 = binary.NativeEndian.AppendUint32(v1, artifactEndianTag)
		v1 = binary.LittleEndian.AppendUint64(v1, 64)
		v1 = binary.LittleEndian.AppendUint64(v1, 0)
		v1 = binary.LittleEndian.AppendUint64(v1, 0)
		v1 = binary.LittleEndian.AppendUint32(v1, 0)
		v1 = binary.LittleEndian.AppendUint32(v1, 0)
		v1 = appendStr(appendStr(v1, "v1"), "")
		v1 = append(v1, make([]byte, 64-len(v1))...)
		var ve *ArtifactVersionError
		if _, err := ReadArtifact(v1); !errors.As(err, &ve) || ve.Got != 1 || ve.Want != ArtifactVersion {
			t.Fatalf("ReadArtifact(v1 image) = %v, want ArtifactVersionError{1, %d}", err, ArtifactVersion)
		}
	})
	t.Run("endian", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[12], bad[13], bad[14], bad[15] = bad[15], bad[14], bad[13], bad[12]
		if _, err := ReadArtifact(bad); !errors.Is(err, ErrArtifactEndian) {
			t.Fatalf("err = %v, want ErrArtifactEndian", err)
		}
	})
	t.Run("header bit flips", func(t *testing.T) {
		// MSB-flip each header region in turn: every flip must be caught by
		// the header checksum (or field validation), never panic.
		headerLen := int(binary.LittleEndian.Uint64(img[16:]))
		for off := 16; off < headerLen; off += 16 {
			bad := append([]byte(nil), img...)
			end := off + 8
			if end > headerLen {
				end = headerLen
			}
			fault.CorruptBytes(bad[off:end])
			var ce *ArtifactCorruptError
			if _, err := ReadArtifact(bad); err == nil {
				t.Fatalf("flip at %d: accepted", off)
			} else if !errors.As(err, &ce) {
				t.Fatalf("flip at %d: err = %v, want ArtifactCorruptError", off, err)
			}
		}
	})
	t.Run("bad section offset", func(t *testing.T) {
		// Re-checksum after tampering, so only the bounds validation stands
		// between a hostile offset and an out-of-range slice.
		headerLen := binary.LittleEndian.Uint64(img[16:])
		for _, tamper := range []func([]byte, int){
			func(b []byte, off int) { binary.LittleEndian.PutUint64(b[off:], uint64(len(b))+8) }, // past EOF
			func(b []byte, off int) { binary.LittleEndian.PutUint64(b[off:], 0) },                // inside header
			func(b []byte, off int) { binary.LittleEndian.PutUint64(b[off:], headerLen+1) },      // unaligned
		} {
			bad := append([]byte(nil), img...)
			// First sequence record: name "chr31" (4+5), desc "" (4),
			// seqLen (8) → rawOff sits after the fixed header, the name and
			// pattern strings. Locate it by re-walking the header.
			r := &headerReader{b: bad[:headerLen], pos: fixedHeaderLen}
			r.str() // assembly name
			r.str() // pattern
			r.str() // seq name
			r.str() // seq desc
			r.u64() // seqLen
			tamper(bad, r.pos)
			binary.LittleEndian.PutUint32(bad[headerSumOff:], headerSumOf(bad[:headerLen]))
			var ce *ArtifactCorruptError
			if _, err := ReadArtifact(bad); !errors.As(err, &ce) {
				t.Fatalf("tampered offset: err = %v, want ArtifactCorruptError", err)
			}
		}
	})
	t.Run("sequence length limit", func(t *testing.T) {
		// A re-checksummed header claiming a sequence of 2^30 bases or more
		// is corrupt before any section bound is checked.
		headerLen := binary.LittleEndian.Uint64(img[16:])
		for _, n := range []uint64{MaxArtifactSeqLen, MaxArtifactSeqLen + 1, 1 << 62} {
			bad := append([]byte(nil), img...)
			r := &headerReader{b: bad[:headerLen], pos: fixedHeaderLen}
			r.str() // assembly name
			r.str() // pattern
			r.str() // seq name
			r.str() // seq desc
			binary.LittleEndian.PutUint64(bad[r.pos:], n)
			binary.LittleEndian.PutUint32(bad[headerSumOff:], headerSumOf(bad[:headerLen]))
			var ce *ArtifactCorruptError
			if _, err := ReadArtifact(bad); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "limit") {
				t.Fatalf("sequence length %d: err = %v, want an ArtifactCorruptError naming the limit", n, err)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 7, fixedHeaderLen - 1, fixedHeaderLen, len(img) / 2, len(img) - 1} {
			if a, err := ReadArtifact(img[:n]); err == nil {
				// A truncation that only loses payload bytes is caught by
				// the section bounds; header-only truncations by the length
				// checks. Either way, never a silent success.
				t.Fatalf("ReadArtifact(%d of %d bytes) = %v, nil error", n, len(img), a)
			}
		}
	})
	t.Run("payload flip", func(t *testing.T) {
		// One flipped byte in each section kind of a multi-word sequence.
		clean, err := ReadArtifact(img)
		if err != nil {
			t.Fatal(err)
		}
		s := &clean.seqs[3]
		for k, name := range sectionNames {
			bad := append([]byte(nil), img...)
			fault.CorruptBytes(bad[s.off[k] : s.off[k]+1])
			a, err := ReadArtifact(bad)
			if err != nil {
				// Load is O(header) by design: payload damage is invisible
				// until Verify sweeps it.
				t.Fatalf("ReadArtifact after a %s flip: %v (payload must not be scanned at load)", name, err)
			}
			var ce *ArtifactCorruptError
			if err := a.Verify(); !errors.As(err, &ce) || !strings.Contains(ce.Reason, name+" section") {
				t.Fatalf("%s flip: Verify = %v, want an ArtifactCorruptError naming the section", name, err)
			}
		}
	})
}

func FuzzArtifact(f *testing.F) {
	img := func() []byte {
		asm := &Assembly{Name: "fz", Sequences: []*Sequence{
			{Name: "a", Data: []byte("ACGTACGTacgtNNNNACGTACGTACGTACGTA")},
			{Name: "b", Data: []byte("GGGG")},
		}}
		art, err := BuildArtifact(asm, "NNGG", 4, func(si int, v *WordView) []PAMEntry {
			return []PAMEntry{NewPAMEntry(0, PAMFwd), NewPAMEntry(3, PAMRev)}
		})
		if err != nil {
			f.Fatal(err)
		}
		return art.Encode()
	}()
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add(img[:fixedHeaderLen])
	f.Add([]byte("CASOFART"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadArtifact must never panic, and whatever it accepts must be
		// safe to traverse end to end.
		a, err := ReadArtifact(data)
		if err != nil {
			return
		}
		_ = a.Verify()
		asm := a.Assembly()
		for si := 0; si < a.SeqCount(); si++ {
			v := a.View(si)
			if v.Len() != len(asm.Sequences[si].Data) {
				t.Fatalf("seq %d: view length %d, raw length %d", si, v.Len(), len(asm.Sequences[si].Data))
			}
			if v.Len() > 0 {
				v.Window(0)
				v.Window(v.Len() - 1)
			}
			a.PAMRange(si, 0, v.Len())
		}
	})
}
