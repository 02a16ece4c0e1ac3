package genome_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"casoffinder/internal/genome"
)

// ExampleMatches shows the IUPAC degenerate-base semantics of the comparer
// kernel's ladder.
func ExampleMatches() {
	fmt.Println(genome.Matches('N', 'A')) // N matches anything concrete
	fmt.Println(genome.Matches('R', 'G')) // R = A or G
	fmt.Println(genome.Matches('R', 'C'))
	fmt.Println(genome.Matches('A', 'N')) // unresolved genome base
	// Output:
	// true
	// true
	// false
	// false
}

// ExampleReverseComplemented flips a site to the other strand.
func ExampleReverseComplemented() {
	fmt.Println(string(genome.ReverseComplemented([]byte("GATTACAGG"))))
	// Output:
	// CCTGTAATC
}

// ExampleReadFASTAFile parses a multi-record FASTA file.
func ExampleReadFASTAFile() {
	dir, err := os.MkdirTemp("", "fasta")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo.fa")
	if err := os.WriteFile(path, []byte(">chr1 demo\nACGT\nACGT\n>chr2\nNNNN\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	seqs, err := genome.ReadFASTAFile(path)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range seqs {
		fmt.Printf("%s: %d bases\n", s.Name, s.Len())
	}
	// Output:
	// chr1: 8 bases
	// chr2: 4 bases
}

// ExampleGenerate builds a deterministic synthetic assembly.
func ExampleGenerate() {
	asm, err := genome.Generate(genome.HG19Like(100_000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d chromosomes, %d bases\n", asm.Name, len(asm.Sequences), genome.Compose(asm).TotalBases)
	// Output:
	// hg19-like: 24 chromosomes, 100000 bases
}

// ExampleChunker plans device-sized chunks with pattern overlap.
func ExampleChunker() {
	asm := &genome.Assembly{Sequences: []*genome.Sequence{
		{Name: "chr1", Data: []byte("ACGTACGTACGTACGT")}, // 16 bases
	}}
	chunker := &genome.Chunker{ChunkBytes: 8, PatternLen: 3}
	chunks, err := chunker.Plan(asm)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range chunks {
		fmt.Printf("start %2d: %d owned sites, %d overlap\n", c.Start, c.Body, c.Overlap)
	}
	// Output:
	// start  0: 6 owned sites, 2 overlap
	// start  6: 6 owned sites, 2 overlap
	// start 12: 2 owned sites, 2 overlap
}
