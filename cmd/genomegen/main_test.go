package main

import (
	"os"
	"path/filepath"
	"testing"

	"casoffinder/internal/genome"
)

func TestRunSingleFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.fa")
	if err := run([]string{"-profile", "hg19", "-bases", "50000", "-o", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	seqs, err := genome.ReadFASTAFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, s := range seqs {
		total += s.Len()
	}
	if total != 50000 {
		t.Errorf("total bases = %d, want 50000", total)
	}
	if len(seqs) != 24 {
		t.Errorf("chromosomes = %d, want 24", len(seqs))
	}
}

func TestRunDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chrs")
	if err := run([]string{"-profile", "hg38", "-bases", "30000", "-dir", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 24 {
		t.Errorf("files = %d, want 24", len(entries))
	}
	asm, err := genome.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := genome.Compose(asm).TotalBases; n != 30000 {
		t.Errorf("TotalBases = %d", n)
	}
}

func TestRunSeedOverride(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.fa"), filepath.Join(dir, "b.fa")
	if err := run([]string{"-bases", "10000", "-seed", "123", "-o", a}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bases", "10000", "-seed", "456", "-o", b}); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if string(da) == string(db) {
		t.Error("different seeds produced identical assemblies")
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"neither output", []string{"-bases", "100"}},
		{"both outputs", []string{"-o", "x.fa", "-dir", "y"}},
		{"bad profile", []string{"-profile", "mm10", "-o", filepath.Join(t.TempDir(), "g.fa")}},
		{"zero bases", []string{"-bases", "0", "-o", filepath.Join(t.TempDir(), "g.fa")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}
