package opencl_test

import (
	"strings"
	"testing"

	"casoffinder/internal/bench"
)

// TestProgrammingStepCounts: Table I's OpenCL column has 13 programming
// steps, and each one names this package's code implementing it.
func TestProgrammingStepCounts(t *testing.T) {
	steps := 0
	for _, line := range strings.Split(bench.RenderTable1(), "\n")[1:] {
		if line == "" {
			continue
		}
		opencl, _, _ := strings.Cut(line, " | ")
		if !strings.Contains(opencl, "(opencl.") {
			t.Errorf("Table I OpenCL step %q names no opencl code", opencl)
		}
		steps++
	}
	if steps != 13 {
		t.Errorf("OpenCL steps = %d, want 13 (Table I)", steps)
	}
}
