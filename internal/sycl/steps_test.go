package sycl_test

import (
	"strings"
	"testing"

	"casoffinder/internal/bench"
)

// TestProgrammingStepCounts: Table I's SYCL column has 8 programming steps,
// and each one names this package's code implementing it.
func TestProgrammingStepCounts(t *testing.T) {
	steps := 0
	for _, line := range strings.Split(bench.RenderTable1(), "\n")[1:] {
		_, sycl, ok := strings.Cut(line, " | ")
		if !ok {
			continue
		}
		if !strings.Contains(sycl, "(sycl.") {
			t.Errorf("Table I SYCL step %q names no sycl code", sycl)
		}
		steps++
	}
	if steps != 8 {
		t.Errorf("SYCL steps = %d, want 8 (Table I)", steps)
	}
}
