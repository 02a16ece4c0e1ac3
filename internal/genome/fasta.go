package genome

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode"
)

// Sequence is one record of a FASTA file: a name (the text after '>', up to
// the first whitespace), an optional free-form description, and the sequence
// bytes with line breaks removed.
type Sequence struct {
	Name        string
	Description string
	Data        []byte
}

// Len returns the number of bases in the sequence.
func (s *Sequence) Len() int { return len(s.Data) }

// Assembly is an ordered collection of sequences, e.g. the chromosomes of a
// genome build. Order is load order, which the chunker and the search engine
// preserve so that results are reported deterministically.
type Assembly struct {
	Name      string
	Sequences []*Sequence

	// art links back to the persistent artifact this assembly was
	// reconstructed from (nil for FASTA-loaded assemblies). Engines use it
	// to discover resident word views and PAM shards without any change to
	// their public surface.
	art *Artifact
}

// Artifact returns the persistent artifact backing this assembly, or nil
// when the assembly was parsed from FASTA.
func (a *Assembly) Artifact() *Artifact { return a.art }

// Sequence returns the record with the given name, or nil.
func (a *Assembly) Sequence(name string) *Sequence {
	for _, s := range a.Sequences {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ErrEmptyFASTA is returned when an input contains no sequence records.
var ErrEmptyFASTA = errors.New("genome: FASTA input contains no sequences")

// ReadFASTAFile parses the FASTA file at path, which may contain one or many
// records. Blank lines and ';' comment lines are ignored; sequence bytes are
// validated as IUPAC codes. Windows line endings are accepted.
//
// The file is read into one buffer and parsed in place: every record's Data
// is a slice of that buffer with capacity equal to its length, so appending
// to one record reallocates it rather than overwriting the next.
func ReadFASTAFile(path string) ([]*Sequence, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("genome: %w", err)
	}
	seqs, err := parseFASTA(buf)
	if err != nil {
		return nil, fmt.Errorf("genome: %s: %w", path, err)
	}
	return seqs, nil
}

// badCode is 1 for every byte that is not an IUPAC nucleotide code, so a
// line is valid exactly when the OR of its entries is 0.
var badCode = func() (t [256]byte) {
	for i := range t {
		if !IsCode(byte(i)) {
			t[i] = 1
		}
	}
	return t
}()

// allCodes reports whether every byte of line is an IUPAC nucleotide code,
// without a branch per byte. Eight bytes a step into two accumulators keeps
// the OR chains short: BenchmarkReadFASTAFile at 60 bases per line ran
// ≈25% faster than with one byte a step, on a 2-core Xeon.
func allCodes(line []byte) bool {
	var b0, b1 byte
	i := 0
	for ; i+8 <= len(line); i += 8 {
		t := line[i : i+8 : i+8]
		b0 |= badCode[t[0]] | badCode[t[1]] | badCode[t[2]] | badCode[t[3]]
		b1 |= badCode[t[4]] | badCode[t[5]] | badCode[t[6]] | badCode[t[7]]
	}
	for _, b := range line[i:] {
		b0 |= badCode[b]
	}
	return b0|b1 == 0
}

// parseFASTA parses buf, compacting each record's sequence lines towards
// the front of buf itself. Bytes are only ever dropped (headers, comments,
// line breaks), so the write cursor never passes the read cursor and no
// unread byte is overwritten. The returned records alias buf, and share
// one backing array of Sequence values.
func parseFASTA(buf []byte) ([]*Sequence, error) {
	var (
		recs     []Sequence
		start, w int // the last record's first sequence byte and the write cursor
		line     int
	)
	for r := 0; r < len(buf); {
		line++
		end, next := len(buf), len(buf)
		if i := bytes.IndexByte(buf[r:], '\n'); i >= 0 {
			end, next = r+i, r+i+1
		}
		for end > r && buf[end-1] == '\r' {
			end--
		}
		text := buf[r:end]
		r = next
		switch {
		case len(text) == 0:
			// blank line, skip
		case text[0] == '>':
			if len(recs) > 0 {
				recs[len(recs)-1].Data = buf[start:w:w]
			}
			header := strings.TrimSpace(string(text[1:]))
			if header == "" {
				return nil, fmt.Errorf("genome: line %d: empty FASTA header", line)
			}
			rec := Sequence{Name: header}
			if i := strings.IndexFunc(header, unicode.IsSpace); i >= 0 {
				rec.Name, rec.Description = header[:i], strings.TrimSpace(header[i:])
			}
			recs = append(recs, rec)
			start = w
		case text[0] == ';':
			// old-style comment line, skip
		default:
			if len(recs) == 0 {
				return nil, fmt.Errorf("genome: line %d: sequence data before first header", line)
			}
			if !allCodes(text) {
				for i, b := range text {
					if !IsCode(b) {
						return nil, fmt.Errorf("genome: line %d: invalid nucleotide code %q at column %d", line, b, i+1)
					}
				}
			}
			w += copy(buf[w:], text)
		}
	}
	if len(recs) == 0 {
		return nil, ErrEmptyFASTA
	}
	recs[len(recs)-1].Data = buf[start:w:w]
	seqs := make([]*Sequence, len(recs))
	for i := range recs {
		seqs[i] = &recs[i]
	}
	return seqs, nil
}

// fastaExtensions are the file suffixes LoadDir recognises, matching the
// upstream Cas-OFFinder convention of pointing the tool at a directory of
// chromosome files.
var fastaExtensions = []string{".fa", ".fasta", ".fna"}

// LoadDir reads every FASTA file in dir (non-recursively) into one assembly.
// Files are visited in lexical order; records keep file order within a file.
// If dir itself names a FASTA file, it is loaded as a single-file assembly.
func LoadDir(dir string) (*Assembly, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("genome: %w", err)
	}
	asm := &Assembly{Name: filepath.Base(dir)}
	if !info.IsDir() {
		// Normalize single-file assembly names to the bare stem so the
		// name matches what a directory load of the same content would
		// produce (and artifact headers stay stable across both paths).
		for _, ext := range fastaExtensions {
			if strings.EqualFold(filepath.Ext(asm.Name), ext) {
				asm.Name = strings.TrimSuffix(asm.Name, filepath.Ext(asm.Name))
				break
			}
		}
		seqs, err := ReadFASTAFile(dir)
		if err != nil {
			return nil, err
		}
		asm.Sequences = seqs
		if err := checkUniqueNames(asm.Sequences); err != nil {
			return nil, err
		}
		return asm, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("genome: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		for _, want := range fastaExtensions {
			if ext == want {
				names = append(names, e.Name())
				break
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("genome: no FASTA files (%s) in %s", strings.Join(fastaExtensions, ", "), dir)
	}
	for _, name := range names {
		seqs, err := ReadFASTAFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		asm.Sequences = append(asm.Sequences, seqs...)
	}
	if err := checkUniqueNames(asm.Sequences); err != nil {
		return nil, err
	}
	return asm, nil
}

// WriteFASTA writes the sequences to w with lines wrapped at width bases
// (60 if width <= 0).
func WriteFASTA(w io.Writer, seqs []*Sequence, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, s := range seqs {
		if s.Description != "" {
			fmt.Fprintf(bw, ">%s %s\n", s.Name, s.Description)
		} else {
			fmt.Fprintf(bw, ">%s\n", s.Name)
		}
		for off := 0; off < len(s.Data); off += width {
			end := off + width
			if end > len(s.Data) {
				end = len(s.Data)
			}
			bw.Write(s.Data[off:end])
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// WriteFASTAFile writes the sequences to the file at path.
func WriteFASTAFile(path string, seqs []*Sequence, width int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("genome: %w", err)
	}
	if err := WriteFASTA(f, seqs, width); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("genome: %w", err)
	}
	return nil
}
