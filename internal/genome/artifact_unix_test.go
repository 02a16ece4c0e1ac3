//go:build unix

package genome

import (
	"errors"
	"syscall"
	"testing"
)

// TestBuildArtifactRejectsLongSequence: a sequence of 2^30 bases is refused
// with a typed error before anything reads it. Its bytes are a read-only
// anonymous mapping, so the test reserves the address space and allocates
// no gigabase.
func TestBuildArtifactRejectsLongSequence(t *testing.T) {
	huge, err := syscall.Mmap(-1, 0, MaxArtifactSeqLen, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("cannot reserve %d bytes of address space: %v", MaxArtifactSeqLen, err)
	}
	defer syscall.Munmap(huge)
	asm := &Assembly{Name: "huge", Sequences: []*Sequence{
		{Name: "chr1", Data: []byte("ACGT")},
		{Name: "chrHuge", Data: huge},
	}}
	var tl *SequenceTooLongError
	if _, err := BuildArtifact(asm, "", 0, nil); !errors.As(err, &tl) || tl.Name != "chrHuge" || tl.Len != MaxArtifactSeqLen {
		t.Fatalf("BuildArtifact(%d-base sequence) = %v, want SequenceTooLongError", MaxArtifactSeqLen, err)
	}
	if _, err := BuildArtifact(&Assembly{Name: "ok", Sequences: asm.Sequences[:1]}, "", 0, nil); err != nil {
		t.Fatalf("BuildArtifact(4-base sequence): %v", err)
	}
}
