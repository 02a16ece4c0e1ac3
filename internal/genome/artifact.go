package genome

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// An Artifact is a genome assembly in its search-ready form, persisted so
// that repeated runs (or a resident server) skip the FASTA parse and the
// word-view build that otherwise dominate cold start. One artifact bundles,
// per sequence:
//
//   - the raw sequence bytes exactly as loaded (site rendering and the
//     simulator engines stage these, so artifact-backed output stays
//     byte-identical to a FASTA-backed run);
//   - the 32-bases-per-uint64 code words and unknown-lane words in
//     WordView layout, padding word included, so a word view over any
//     chunk window is a slice header away;
//   - optionally a sorted shard of PAM-candidate entries precomputed for
//     one scaffold pattern with the SWAR 32-wide prefilter, letting the
//     scan engines skip candidate finding entirely.
//
// The on-disk encoding is designed for O(header) loads: a fixed-width,
// checksummed, endianness-tagged header names absolute section offsets and
// the payload is reinterpreted in place as []byte / []uint64 / []PAMEntry
// slices — no per-base work happens between mapping the file and the first
// kernel launch (LoadArtifact memory-maps on unix, so the payload is not
// even read until the engines walk it).
// Every payload section carries its own CRC-32C, checked on demand by Verify
// rather than at load (a load-time payload sweep would reintroduce the
// O(genome) cost the artifact exists to remove).
type Artifact struct {
	name       string
	pattern    string // upper-cased scaffold the PAM shards index; "" = none
	patternLen int
	seqs       []artifactSeq
	data       []byte // backing file image for loaded artifacts (nil when built in memory)
	path       string // the file data was loaded from; "" for byte-slice images
	headerLen  int
	headerSum  uint32
	asm        *Assembly    // lazily built, aliasing the payload
	close      func() error // unmaps a LoadArtifact mapping; nil otherwise
}

// artifactSeq is one sequence's resident state: metadata plus zero-copy
// views into the payload (or, for freshly built artifacts, the slices the
// builder produced).
type artifactSeq struct {
	name string
	desc string
	raw  []byte
	view WordView
	pam  []PAMEntry
	// off and sum are each section's file offset and recorded CRC-32C, in
	// sectionNames order (set by ReadArtifact).
	off [numSections]int64
	sum [numSections]uint32
}

// The payload sections of one sequence, in file order.
const (
	secRaw = iota
	secCodes
	secUnknown
	secPAM
	numSections
)

// sectionNames names each section in errors.
var sectionNames = [numSections]string{"raw", "codes", "unknown", "pam"}

// section returns the bytes of section k of s.
func (s *artifactSeq) section(k int) []byte {
	switch k {
	case secRaw:
		return s.raw
	case secCodes:
		return asBytes(s.view.codes)
	case secUnknown:
		return asBytes(s.view.unknown)
	}
	return asBytes(s.pam)
}

// PAM shard entries pack one candidate's strand bits below its position.
const (
	// PAMFwd marks a candidate whose forward-strand scaffold matched.
	PAMFwd = 1 << 0
	// PAMRev marks a candidate whose reverse-strand scaffold matched.
	PAMRev = 1 << 1
)

// A PAMEntry is one PAM-candidate: pos<<2 | PAMFwd/PAMRev. In a shard the
// position is sequence-local; MaxArtifactSeqLen keeps it in 30 bits.
type PAMEntry uint32

// NewPAMEntry packs a candidate position and its strand bits.
func NewPAMEntry(pos int, strand uint8) PAMEntry { return PAMEntry(pos)<<2 | PAMEntry(strand) }

// Pos returns the entry's position.
func (e PAMEntry) Pos() int { return int(e >> 2) }

// Strand returns the entry's PAMFwd/PAMRev bits.
func (e PAMEntry) Strand() uint8 { return uint8(e & 3) }

// MaxArtifactSeqLen is the first sequence length an artifact cannot hold: a
// PAMEntry keeps its position in 30 bits.
const MaxArtifactSeqLen = 1 << 30

// SequenceTooLongError reports a sequence of MaxArtifactSeqLen bases or
// more, which BuildArtifact cannot index.
type SequenceTooLongError struct {
	Name string
	Len  int
}

// Error implements error.
func (e *SequenceTooLongError) Error() string {
	return fmt.Sprintf("genome: artifact: sequence %s has %d bases; an artifact holds fewer than %d", e.Name, e.Len, MaxArtifactSeqLen)
}

// artifactMagic opens every artifact file.
const artifactMagic = "CASOFART"

// ArtifactVersion is the current format version. Readers refuse any other.
const ArtifactVersion = 2

// artifactEndianTag is written in the builder's native byte order; a reader
// whose native order decodes it differently must not reinterpret the
// payload words.
const artifactEndianTag uint32 = 0x01020304

// fixedHeaderLen is the byte length of the fixed header prefix (magic,
// version, endian tag, header length, header checksum, pattern length,
// sequence count).
const fixedHeaderLen = 8 + 4 + 4 + 8 + 4 + 4 + 4

// headerSumOff is the offset of the header's own CRC-32C.
const headerSumOff = 24

// castagnoli is the CRC-32C table every artifact checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrArtifactMagic is returned when the input does not start with the
// artifact magic — it is not an artifact file at all.
var ErrArtifactMagic = errors.New("genome: not a genome artifact (bad magic)")

// ErrArtifactEndian is returned when the artifact was built on a host with
// the opposite byte order: its payload words cannot be reinterpreted in
// place. Rebuild the artifact on (or for) the consuming host.
var ErrArtifactEndian = errors.New("genome: artifact built with opposite byte order; rebuild it on this host")

// ArtifactVersionError reports an artifact written by an incompatible
// format version.
type ArtifactVersionError struct {
	Got, Want uint32
}

// Error implements error.
func (e *ArtifactVersionError) Error() string {
	return fmt.Sprintf("genome: artifact format version %d (this build reads version %d)", e.Got, e.Want)
}

// ArtifactCorruptError reports an artifact whose structure or checksums do
// not hold together — a truncated file, a flipped bit, an offset pointing
// outside the file.
type ArtifactCorruptError struct {
	Reason string
}

// Error implements error.
func (e *ArtifactCorruptError) Error() string {
	return "genome: corrupt artifact: " + e.Reason
}

func corruptf(format string, args ...any) error {
	return &ArtifactCorruptError{Reason: fmt.Sprintf(format, args...)}
}

// DuplicateNameError reports two sequences sharing one name within an
// assembly. Name-keyed consumers (Assembly.Sequence, the artifact's
// per-sequence index) would silently resolve to the first record, so both
// LoadDir and BuildArtifact refuse the assembly instead.
type DuplicateNameError struct {
	Name string
}

// Error implements error.
func (e *DuplicateNameError) Error() string {
	return fmt.Sprintf("genome: duplicate sequence name %q in assembly", e.Name)
}

// checkUniqueNames returns a *DuplicateNameError when two sequences share a
// name.
func checkUniqueNames(seqs []*Sequence) error {
	seen := make(map[string]struct{}, len(seqs))
	for _, s := range seqs {
		if _, dup := seen[s.Name]; dup {
			return &DuplicateNameError{Name: s.Name}
		}
		seen[s.Name] = struct{}{}
	}
	return nil
}

// PAMFunc computes one sequence's sorted PAM-candidate shard from its word
// view, in ascending position order. The search layer supplies the SWAR
// prefilter as the implementation; the genome layer stays ignorant of
// pattern compilation.
type PAMFunc func(seqIndex int, v *WordView) []PAMEntry

// BuildArtifact packs every sequence of asm into artifact form. pattern and
// patternLen describe the scaffold the optional PAM shards index (empty
// pattern: no shards, pamFor may be nil); pamFor is invoked once per
// sequence with its freshly built word view. A sequence of
// MaxArtifactSeqLen bases or more is a *SequenceTooLongError.
func BuildArtifact(asm *Assembly, pattern string, patternLen int, pamFor PAMFunc) (*Artifact, error) {
	if err := checkUniqueNames(asm.Sequences); err != nil {
		return nil, err
	}
	for _, seq := range asm.Sequences {
		if len(seq.Data) >= MaxArtifactSeqLen {
			return nil, &SequenceTooLongError{Name: seq.Name, Len: len(seq.Data)}
		}
	}
	if pattern == "" {
		patternLen, pamFor = 0, nil
	}
	a := &Artifact{
		name:       asm.Name,
		pattern:    strings.ToUpper(pattern),
		patternLen: patternLen,
		seqs:       make([]artifactSeq, len(asm.Sequences)),
	}
	for i, seq := range asm.Sequences {
		s := &a.seqs[i]
		if _, err := NewWordView(seq.Data, &s.view); err != nil {
			return nil, fmt.Errorf("genome: artifact: sequence %s: %w", seq.Name, err)
		}
		s.name, s.desc, s.raw = seq.Name, seq.Description, seq.Data
		if pamFor != nil {
			s.pam = pamFor(i, &s.view)
		}
	}
	return a, nil
}

// Name returns the assembly name recorded in the artifact.
func (a *Artifact) Name() string { return a.name }

// Pattern returns the upper-cased scaffold pattern the PAM shards were
// built for, or "" when the artifact carries no PAM index.
func (a *Artifact) Pattern() string { return a.pattern }

// PatternLen returns the indexed scaffold's length in bases (0 without a
// PAM index).
func (a *Artifact) PatternLen() int { return a.patternLen }

// HasPAMIndex reports whether the artifact carries PAM shards built for the
// given scaffold pattern (compared case-insensitively).
func (a *Artifact) HasPAMIndex(pattern string) bool {
	return a.pattern != "" && strings.EqualFold(a.pattern, pattern)
}

// SeqCount returns the number of sequences.
func (a *Artifact) SeqCount() int { return len(a.seqs) }

// SeqName returns the name of sequence si.
func (a *Artifact) SeqName(si int) string { return a.seqs[si].name }

// SeqLen returns the base count of sequence si.
func (a *Artifact) SeqLen(si int) int { return a.seqs[si].view.n }

// View returns the resident whole-sequence word view of sequence si. The
// view is shared and read-only; Window positions are absolute sequence
// coordinates.
func (a *Artifact) View(si int) *WordView { return &a.seqs[si].view }

// PAMCount returns the total number of precomputed PAM candidates.
func (a *Artifact) PAMCount() int64 {
	var n int64
	for i := range a.seqs {
		n += int64(len(a.seqs[i].pam))
	}
	return n
}

// PAMRange returns the PAM shard entries of sequence si whose positions lie
// in [lo, hi), in ascending position order: two binary searches, no copy.
// The slice aliases the resident shard — callers must not mutate it.
func (a *Artifact) PAMRange(si, lo, hi int) []PAMEntry {
	pam := a.seqs[si].pam
	from := sort.Search(len(pam), func(i int) bool { return pam[i].Pos() >= lo })
	pam = pam[from:]
	return pam[:sort.Search(len(pam), func(i int) bool { return pam[i].Pos() >= hi })]
}

// Prefault makes the sections a word-parallel scan walks end to end — the
// code and unknown-lane words of every sequence, and with pam the PAM shards
// — resident now, by reading one word per page. A mapped payload otherwise
// faults in as the scan reaches it, so a short-lived process's resident set
// climbs until it exits and what an observer reads depends on when it looks;
// after Prefault it is at its plateau before the first chunk. The raw bytes
// stay lazy: a scan reads them only around hits. Cheap to repeat (one load
// per page) and a no-op for built or byte-slice-backed artifacts.
func (a *Artifact) Prefault(pam bool) {
	if a.close == nil {
		return
	}
	var sum uint64
	for i := range a.seqs {
		s := &a.seqs[i]
		sum += touchPages(s.view.codes) + touchPages(s.view.unknown)
		if pam {
			sum += touchPages(s.pam)
		}
	}
	runtime.KeepAlive(sum)
}

// touchPages reads one element of w per page.
func touchPages[T uint64 | PAMEntry](w []T) uint64 {
	var sum uint64
	stride := os.Getpagesize() / int(unsafe.Sizeof(T(0)))
	for i := 0; i < len(w); i += stride {
		sum += uint64(w[i])
	}
	return sum
}

// Assembly returns the assembly view of the artifact: sequence Data aliases
// the resident payload (no copy), and the returned assembly links back to
// the artifact so engines can discover the resident views and shards via
// Assembly.Artifact. The assembly is built once and shared.
func (a *Artifact) Assembly() *Assembly {
	if a.asm != nil {
		return a.asm
	}
	asm := &Assembly{Name: a.name, art: a}
	asm.Sequences = make([]*Sequence, len(a.seqs))
	for i := range a.seqs {
		s := &a.seqs[i]
		asm.Sequences[i] = &Sequence{Name: s.name, Description: s.desc, Data: s.raw}
	}
	a.asm = asm
	return asm
}

// pad8 rounds n up to the next multiple of 8 so every payload section stays
// 8-byte aligned relative to the file start.
func pad8(n int) int { return (n + 7) &^ 7 }

// asBytes reinterprets a word slice as its backing bytes (native order).
func asBytes[T uint64 | PAMEntry](w []T) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*int(unsafe.Sizeof(w[0])))
}

// fromBytes reinterprets b as n native-order words. When b is not aligned
// for T (possible only if the backing buffer itself is misaligned, which the
// Go allocator never produces for os.ReadFile) the words are copied —
// correctness never depends on the zero-copy fast path.
func fromBytes[T uint64 | PAMEntry](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Sizeof(T(0)) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	copy(asBytes(out), b)
	return out
}

// appendStr appends a u32 length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// encodeHeader serializes the header with each sequence's section offsets
// and checksums (zero when off is nil, for sizing). The header's own
// checksum is left zero; Encode patches it once the header is complete.
func (a *Artifact) encodeHeader(headerLen int, off [][numSections]int, sum [][numSections]uint32) []byte {
	h := make([]byte, 0, headerLen)
	h = append(h, artifactMagic...)
	h = binary.LittleEndian.AppendUint32(h, ArtifactVersion)
	h = binary.NativeEndian.AppendUint32(h, artifactEndianTag)
	h = binary.LittleEndian.AppendUint64(h, uint64(headerLen))
	h = binary.LittleEndian.AppendUint32(h, 0) // headerSum, patched
	h = binary.LittleEndian.AppendUint32(h, uint32(a.patternLen))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(a.seqs)))
	h = appendStr(h, a.name)
	h = appendStr(h, a.pattern)
	for i := range a.seqs {
		s := &a.seqs[i]
		h = appendStr(h, s.name)
		h = appendStr(h, s.desc)
		h = binary.LittleEndian.AppendUint64(h, uint64(s.view.n))
		var o [numSections]int
		var c [numSections]uint32
		if off != nil {
			o, c = off[i], sum[i]
		}
		for _, v := range o {
			h = binary.LittleEndian.AppendUint64(h, uint64(v))
		}
		h = binary.LittleEndian.AppendUint64(h, uint64(len(s.pam)))
		for _, v := range c {
			h = binary.LittleEndian.AppendUint32(h, v)
		}
	}
	return h
}

// headerSumOf is the CRC-32C of the header region with its own checksum
// field read as zero.
func headerSumOf(header []byte) uint32 {
	var zero [4]byte
	sum := crc32.Update(0, castagnoli, header[:headerSumOff])
	sum = crc32.Update(sum, castagnoli, zero[:])
	return crc32.Update(sum, castagnoli, header[headerSumOff+4:])
}

// Encode serializes the artifact into one file image.
func (a *Artifact) Encode() []byte {
	// First pass sizes the header (offsets and sums are fixed-width, so
	// patching real values later cannot change its length).
	headerLen := pad8(len(a.encodeHeader(0, nil, nil)))
	off := make([][numSections]int, len(a.seqs))
	sum := make([][numSections]uint32, len(a.seqs))
	end := headerLen
	for i := range a.seqs {
		for k := range sectionNames {
			b := a.seqs[i].section(k)
			off[i][k], sum[i][k] = pad8(end), crc32.Checksum(b, castagnoli)
			end = off[i][k] + len(b)
		}
	}
	img := make([]byte, end)
	copy(img, a.encodeHeader(headerLen, off, sum))
	for i := range a.seqs {
		for k := range sectionNames {
			copy(img[off[i][k]:], a.seqs[i].section(k))
		}
	}
	binary.LittleEndian.PutUint32(img[headerSumOff:], headerSumOf(img[:headerLen]))
	return img
}

// WriteFile writes the encoded artifact to path.
func (a *Artifact) WriteFile(path string) error {
	if err := os.WriteFile(path, a.Encode(), 0o644); err != nil {
		return fmt.Errorf("genome: artifact: %w", err)
	}
	return nil
}

// headerReader walks the variable part of the header with bounds checks.
type headerReader struct {
	b   []byte
	pos int
}

func (r *headerReader) u32() (uint32, error) {
	if r.pos+4 > len(r.b) {
		return 0, corruptf("header field at %d overruns the %d-byte header", r.pos, len(r.b))
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *headerReader) u64() (uint64, error) {
	if r.pos+8 > len(r.b) {
		return 0, corruptf("header field at %d overruns the %d-byte header", r.pos, len(r.b))
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *headerReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) < 0 || r.pos+int(n) > len(r.b) {
		return "", corruptf("header string at %d (%d bytes) overruns the %d-byte header", r.pos, n, len(r.b))
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// ReadArtifact parses an artifact file image in place: the returned
// artifact's raw bytes, word views and PAM shards alias data, so the caller
// must not mutate it. Only the header is validated (magic, version,
// endianness, checksum, section bounds) — the load stays O(header) +
// O(sequences); run Verify to check the section checksums.
func ReadArtifact(data []byte) (*Artifact, error) {
	if len(data) < fixedHeaderLen {
		return nil, corruptf("%d bytes is shorter than the %d-byte fixed header", len(data), fixedHeaderLen)
	}
	if string(data[:8]) != artifactMagic {
		return nil, ErrArtifactMagic
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ArtifactVersion {
		return nil, &ArtifactVersionError{Got: v, Want: ArtifactVersion}
	}
	switch tag := binary.NativeEndian.Uint32(data[12:]); tag {
	case artifactEndianTag:
	case 0x04030201:
		return nil, ErrArtifactEndian
	default:
		return nil, corruptf("unrecognized endianness tag %#x", tag)
	}
	headerLen64 := binary.LittleEndian.Uint64(data[16:])
	if headerLen64 < fixedHeaderLen || headerLen64 > uint64(len(data)) || headerLen64%8 != 0 {
		return nil, corruptf("header length %d outside [%d, %d] or unaligned", headerLen64, fixedHeaderLen, len(data))
	}
	headerLen := int(headerLen64)
	header := data[:headerLen]
	a := &Artifact{
		data:       data,
		headerLen:  headerLen,
		headerSum:  binary.LittleEndian.Uint32(data[headerSumOff:]),
		patternLen: int(binary.LittleEndian.Uint32(data[28:])),
	}
	if want := headerSumOf(header); a.headerSum != want {
		return nil, corruptf("header checksum %#x does not match computed %#x", a.headerSum, want)
	}
	nseq := int(binary.LittleEndian.Uint32(data[32:]))
	// Each sequence record occupies at least 72 header bytes (two empty
	// length-prefixed strings, six fixed words and four checksums),
	// bounding nseq by the header length before any allocation sized from
	// it.
	const minSeqRecord = 4 + 4 + 6*8 + numSections*4
	if nseq < 0 || nseq > (headerLen-fixedHeaderLen)/minSeqRecord {
		return nil, corruptf("sequence count %d cannot fit the %d-byte header", nseq, headerLen)
	}
	r := &headerReader{b: header, pos: fixedHeaderLen}
	var err error
	if a.name, err = r.str(); err != nil {
		return nil, err
	}
	if a.pattern, err = r.str(); err != nil {
		return nil, err
	}
	a.seqs = make([]artifactSeq, nseq)
	for si := 0; si < nseq; si++ {
		s := &a.seqs[si]
		if s.name, err = r.str(); err != nil {
			return nil, err
		}
		if s.desc, err = r.str(); err != nil {
			return nil, err
		}
		seqLen, err := r.u64()
		if err != nil {
			return nil, err
		}
		if seqLen >= MaxArtifactSeqLen {
			return nil, corruptf("sequence %d length %d is not below the %d-base limit", si, seqLen, MaxArtifactSeqLen)
		}
		var off [numSections]uint64
		for k := range off {
			if off[k], err = r.u64(); err != nil {
				return nil, err
			}
		}
		pamCount, err := r.u64()
		if err != nil {
			return nil, err
		}
		for k := range s.sum {
			if s.sum[k], err = r.u32(); err != nil {
				return nil, err
			}
		}
		if pamCount > uint64(len(data))/4 {
			return nil, corruptf("sequence %d PAM shard count %d exceeds the file size", si, pamCount)
		}
		words := seqLen/32 + 1
		if seqLen%32 != 0 {
			words++
		}
		size := [numSections]uint64{seqLen, 8 * words, 8 * words, 4 * pamCount}
		var sec [numSections][]byte
		for k := range sec {
			// Each section must sit inside the payload region on an
			// 8-byte boundary.
			end := off[k] + size[k]
			if off[k] < headerLen64 || end < off[k] || end > uint64(len(data)) || off[k]%8 != 0 {
				return nil, corruptf("sequence %d %s section [%d, %d) outside the %d-byte payload", si, sectionNames[k], off[k], end, len(data))
			}
			sec[k] = data[off[k]:end:end]
			s.off[k] = int64(off[k])
		}
		s.raw = sec[secRaw]
		s.view = WordView{
			n:       int(seqLen),
			codes:   fromBytes[uint64](sec[secCodes], int(words)),
			unknown: fromBytes[uint64](sec[secUnknown], int(words)),
		}
		s.pam = fromBytes[PAMEntry](sec[secPAM], int(pamCount))
	}
	return a, nil
}

// LoadArtifact reads and parses the artifact at path. The load is
// O(header): on unix the file is memory-mapped read-only, so only the
// header pages are touched before the first kernel launch and the payload
// faults in lazily as the engines walk it (or at once where an engine calls
// Prefault); elsewhere the file is read whole.
// Either way the payload lands in the artifact's views without being
// scanned, copied or repacked. Call Close when done with a loaded artifact
// to release the mapping (safe to skip for process-lifetime loads).
func LoadArtifact(path string) (*Artifact, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("genome: artifact: %w", err)
	}
	a, err := ReadArtifact(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, fmt.Errorf("genome: artifact %s: %w", path, err)
	}
	a.path, a.close = path, unmap
	return a, nil
}

// Close releases the file mapping behind a LoadArtifact-loaded artifact.
// Every view, sequence and assembly aliasing the artifact is invalid after
// Close. It is a no-op for built or byte-slice-backed artifacts.
func (a *Artifact) Close() error {
	if a.close == nil {
		return nil
	}
	unmap := a.close
	a.close = nil
	return unmap()
}

// verifyBufLen is the read buffer Verify streams a file through.
const verifyBufLen = 64 << 10

// Verify checks the header and every section against their CRC-32C sums —
// the O(genome) integrity check that load deliberately skips — and returns
// an *ArtifactCorruptError naming the first region that fails. A loaded
// artifact's file is read again through one fixed buffer rather than
// through the mapping, so verifying faults no payload page into the
// process. Freshly built (never encoded) artifacts verify trivially.
func (a *Artifact) Verify() error {
	if a.data == nil {
		return nil
	}
	var src io.ReaderAt = bytes.NewReader(a.data)
	if a.path != "" {
		f, err := os.Open(a.path)
		if err != nil {
			return fmt.Errorf("genome: artifact: %w", err)
		}
		defer f.Close()
		src = f
	}
	buf := make([]byte, verifyBufLen)
	h := crc32.New(castagnoli)
	// feed adds the n bytes of the file at off to h; a range the file no
	// longer holds is corruption.
	feed := func(what string, off, n int64) error {
		got, err := io.CopyBuffer(h, io.NewSectionReader(src, off, n), buf)
		if err != nil {
			return fmt.Errorf("genome: artifact: %s: %w", what, err)
		}
		if got != n {
			return corruptf("%s: the file ends %d bytes into its %d", what, got, n)
		}
		return nil
	}
	var zero [4]byte
	if err := feed("header", 0, headerSumOff); err != nil {
		return err
	}
	h.Write(zero[:])
	if err := feed("header", headerSumOff+4, int64(a.headerLen-headerSumOff-4)); err != nil {
		return err
	}
	if got := h.Sum32(); got != a.headerSum {
		return corruptf("header checksum %#x does not match recorded %#x", got, a.headerSum)
	}
	for si := range a.seqs {
		s := &a.seqs[si]
		for k, name := range sectionNames {
			what := fmt.Sprintf("sequence %d (%s) %s section", si, s.name, name)
			h.Reset()
			if err := feed(what, s.off[k], int64(len(s.section(k)))); err != nil {
				return err
			}
			if got := h.Sum32(); got != s.sum[k] {
				return corruptf("%s checksum %#x does not match recorded %#x", what, got, s.sum[k])
			}
		}
	}
	return nil
}

// Equal reports whether two artifacts carry identical assemblies, shards
// and metadata; the codec tests use it for round-trip checks.
func (a *Artifact) Equal(b *Artifact) bool {
	if a.name != b.name || a.pattern != b.pattern || a.patternLen != b.patternLen || len(a.seqs) != len(b.seqs) {
		return false
	}
	for i := range a.seqs {
		x, y := &a.seqs[i], &b.seqs[i]
		if x.name != y.name || x.desc != y.desc || !bytes.Equal(x.raw, y.raw) {
			return false
		}
		if x.view.n != y.view.n || !slices.Equal(x.view.codes, y.view.codes) ||
			!slices.Equal(x.view.unknown, y.view.unknown) || !slices.Equal(x.pam, y.pam) {
			return false
		}
	}
	return true
}
