package bulge_test

import (
	"fmt"
	"log"
	"strings"

	"casoffinder/internal/bulge"
	"casoffinder/internal/genome"
	"casoffinder/internal/search"
)

// ExampleSearch demonstrates the DNA/RNA-bulge extension (§II.A: the tool
// "can also predict off-target sites with deletions or insertions"). Sites
// with one inserted or one deleted genomic base are planted in a synthetic
// chromosome; a plain search misses them, the bulge-tolerant search reports
// them with their geometry.
func ExampleSearch() {
	const guideCore = "GACGCATTAGCGGATTACAT"
	asm, err := genome.Generate(genome.HG19Like(1 << 20))
	if err != nil {
		log.Fatal(err)
	}
	// Three engineered sites in chr3: a perfect match, a DNA-bulge site
	// (an extra A after guide base 10) and an RNA-bulge site (guide base 5
	// missing).
	chr := asm.Sequence("chr3")
	copy(chr.Data[10_000:], guideCore+"TGG")
	copy(chr.Data[20_000:], guideCore[:10]+"A"+guideCore[10:]+"TGG")
	copy(chr.Data[30_000:], guideCore[:5]+guideCore[6:]+"TGG")

	req := &search.Request{
		Pattern: strings.Repeat("N", 20) + "NGG",
		Queries: []search.Query{{Guide: guideCore + "NNN", MaxMismatches: 1}},
	}
	eng := &search.CPU{}
	plain, err := bulge.Search(eng, asm, req, bulge.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain search: %d sites\n", len(plain))
	tolerant, err := bulge.Search(eng, asm, req, bulge.Options{MaxDNABulge: 1, MaxRNABulge: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulge-tolerant search: %d sites\n", len(tolerant))
	for _, h := range tolerant {
		bulgeCol := "-"
		if h.BulgeType != bulge.None {
			bulgeCol = fmt.Sprintf("%s bulge, size %d, after guide position %d", h.BulgeType, h.BulgeSize, h.BulgePos)
		}
		fmt.Printf("%s %d %s %c %d %s\n", h.SeqName, h.Pos, h.Site, h.Dir, h.Mismatches, bulgeCol)
	}
	// Output:
	// plain search: 1 sites
	// bulge-tolerant search: 8 sites
	// chr3 9999 aGACGCATTAGCGGATTACATTGG + 1 DNA bulge, size 1, after guide position 1
	// chr3 10000 GACGCATTAGCGGATTACATTGG + 0 -
	// chr3 10001 aCGCATTAGCGGATTACATTGG + 1 RNA bulge, size 1, after guide position 1
	// chr3 20000 GACGCATTAGACGGATTACATTGG + 0 DNA bulge, size 1, after guide position 10
	// chr3 20000 GACGCATTAGaCGGATTACATTGG + 1 DNA bulge, size 1, after guide position 9
	// chr3 30000 GACGCTTAGCGGATTACATTGG + 0 RNA bulge, size 1, after guide position 5
	// chr3 30000 GACGcTTAGCGGATTACATTGG + 1 RNA bulge, size 1, after guide position 4
	// chr3 30000 GACGCtTAGCGGATTACATTGG + 1 RNA bulge, size 1, after guide position 6
}
