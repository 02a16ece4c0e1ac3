package search_test

import (
	"bytes"
	"fmt"
	"log"
	"slices"
	"sort"
	"strings"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/search"
)

// ExampleCPU_Run searches a small assembly with the production engine.
func ExampleCPU_Run() {
	asm := &genome.Assembly{Name: "demo", Sequences: []*genome.Sequence{
		{Name: "chr1", Data: []byte("ACCGATTACAGGTTTACCGATTACTGGTT")},
	}}
	req := &search.Request{
		Pattern: "NNNNNNNGG", // 7-nt guide + GG PAM
		Queries: []search.Query{{Guide: "GATTACANN", MaxMismatches: 1}},
	}
	hits, err := (&search.CPU{}).Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("%s:%d %s %c %d\n", h.SeqName, h.Pos, h.Site, h.Dir, h.Mismatches)
	}
	// Output:
	// chr1:3 GATTACAGG + 0
	// chr1:18 GATTACtGG + 1
}

// ExampleSimSYCL_Run reproduces the paper's SYCL application on a simulated
// MI100 and reads back the kernel profile.
func ExampleSimSYCL_Run() {
	asm := &genome.Assembly{Name: "demo", Sequences: []*genome.Sequence{
		{Name: "chr1", Data: []byte("ACCGATTACAGGTTTACCGATTACTGGTT")},
	}}
	req := &search.Request{
		Pattern: "NNNNNNNGG",
		Queries: []search.Query{{Guide: "GATTACANN", MaxMismatches: 1}},
	}
	eng := &search.SimSYCL{
		Device:        gpu.New(device.MI100()),
		Variant:       kernels.Opt3,
		WorkGroupSize: 8,
	}
	hits, err := eng.Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	p := eng.LastProfile()
	fmt.Printf("%d hits from %d candidate sites in %d chunk(s)\n",
		len(hits), p.CandidateSites, p.Chunks)
	// Output:
	// 2 hits from 4 candidate sites in 1 chunk(s)
}

// ExampleCPU_Run_quickstart generates a 2 Mbp hg38-like synthetic genome
// (24 scaled chromosomes), takes a 20-nt protospacer that really exists
// next to an NGG PAM on chr1, and searches for its off-target sites with up
// to four mismatches; the on-target site is always among them.
func ExampleCPU_Run_quickstart() {
	asm, err := genome.Generate(genome.HG38Like(2 << 20))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %s: %d sequences, %d bases\n", asm.Name, len(asm.Sequences), genome.Compose(asm).TotalBases)
	guide := candidateGuides(genome.Upper(asm.Sequence("chr1").Data), 1)[0]
	req := &search.Request{
		Pattern: strings.Repeat("N", 20) + "NGG", // SpCas9: 20-nt guide, NGG PAM
		Queries: []search.Query{{Guide: guide + "NNN", MaxMismatches: 4}},
	}
	hits, err := (&search.CPU{}).Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d sites with <= 4 mismatches:\n", len(hits))
	for _, h := range hits {
		fmt.Printf("%s:%d %s %c %d mismatches\n", h.SeqName, h.Pos, h.Site, h.Dir, h.Mismatches)
	}
	// Output:
	// generated hg38-like: 24 sequences, 2097152 bases
	// 1 sites with <= 4 mismatches:
	// chr1:5 TAGGAAAGATAATTCAATCTTGG + 0 mismatches
}

// ExampleCPU_Run_guideScreen is the workload that motivates Cas-OFFinder:
// rank candidate guides for a target locus by their genome-wide off-target
// burden, so the least promiscuous one can be chosen.
func ExampleCPU_Run_guideScreen() {
	asm, err := genome.Generate(genome.HG38Like(512 << 10))
	if err != nil {
		log.Fatal(err)
	}
	// Candidate guides: NGG-adjacent 20-mers spread over the first bases of
	// chr2 (a pretend target locus).
	guides := candidateGuides(genome.Upper(asm.Sequence("chr2").Data[:20_000]), 5)
	const maxMM = 7
	req := &search.Request{Pattern: strings.Repeat("N", 20) + "NGG"}
	for _, g := range guides {
		req.Queries = append(req.Queries, search.Query{Guide: g + "NNN", MaxMismatches: maxMM})
	}
	hits, err := (&search.CPU{}).Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	// Off-target burden: every site but the on-target one, each weighing
	// four times more per mismatch fewer.
	type score struct {
		guide  string
		byMM   [maxMM + 1]int
		burden int
	}
	scores := make([]score, len(guides))
	for i, g := range guides {
		scores[i] = score{guide: g, burden: -1 << (2 * maxMM)}
	}
	for _, h := range hits {
		s := &scores[h.QueryIndex]
		s.byMM[h.Mismatches]++
		s.burden += 1 << (2 * (maxMM - h.Mismatches))
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].burden < scores[j].burden })
	fmt.Printf("%d candidate guides against %d bases\n", len(guides), genome.Compose(asm).TotalBases)
	for _, s := range scores {
		fmt.Printf("%s  sites by mismatches %v  burden %d\n", s.guide, s.byMM, s.burden)
	}
	fmt.Println("recommended:", scores[0].guide)
	// Output:
	// 5 candidate guides against 524288 bases
	// ACTCTTATGATATCCTAGCA  sites by mismatches [1 0 0 0 0 0 0 9]  burden 9
	// AACGAAATATATGCGACGAC  sites by mismatches [1 0 0 0 0 0 1 6]  burden 10
	// ACTTGACTAACGATTTCCCA  sites by mismatches [1 0 0 0 0 0 2 6]  burden 14
	// AAAACTTTCAAAGCGTTTAC  sites by mismatches [1 0 0 0 0 0 1 13]  burden 17
	// CAATATAGATTCTTCCACGA  sites by mismatches [1 0 0 0 0 0 2 12]  burden 20
	// recommended: ACTCTTATGATATCCTAGCA
}

// candidateGuides collects up to max distinct NGG-adjacent 20-mers of
// concrete bases, at least 200 bases apart.
func candidateGuides(locus []byte, max int) []string {
	var out []string
	for i := 0; i+23 <= len(locus) && len(out) < max; i++ {
		w := locus[i : i+23]
		if w[21] != 'G' || w[22] != 'G' || bytes.ContainsFunc(w, func(r rune) bool { return !genome.IsConcrete(byte(r)) }) {
			continue
		}
		if g := string(w[:20]); !slices.Contains(out, g) {
			out = append(out, g)
			i += 200
		}
	}
	return out
}

// ExampleMultiSYCL_Run spreads the SYCL application over the paper's three
// devices — its stated single-device limitation (§IV.A) turned future work —
// and checks the hits against one MI100. Which device ran which chunk is the
// pull queue's choice, so only schedule-independent facts are printed.
func ExampleMultiSYCL_Run() {
	asm, err := genome.Generate(genome.HG38Like(256 << 10))
	if err != nil {
		log.Fatal(err)
	}
	req := &search.Request{
		Pattern: "NNNNNNNNNNNNNNNNNNNNNRG",
		Queries: []search.Query{{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 8}},
	}
	single := &search.SimSYCL{Device: gpu.New(device.MI100()), Variant: kernels.Opt3}
	want, err := single.Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	multi := &search.MultiSYCL{
		Devices: []*gpu.Device{gpu.New(device.RadeonVII()), gpu.New(device.MI60()), gpu.New(device.MI100())},
		Variant: kernels.Opt3,
	}
	got, err := multi.Run(asm, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one MI100: %d hits from %d chunks\n", len(want), single.LastProfile().Chunks)
	fmt.Printf("three devices: %d hits from %d chunks\n", len(got), multi.LastProfile().Chunks)
	fmt.Println("identical:", slices.Equal(got, want))
	// Output:
	// one MI100: 13 hits from 24 chunks
	// three devices: 13 hits from 24 chunks
	// identical: true
}
