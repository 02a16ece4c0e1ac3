package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"casoffinder/internal/isa"
)

const tinyScale = 1 << 15

func TestRunStaticTables(t *testing.T) {
	for _, table := range []string{"1", "7", "10", "migration", "listing"} {
		if err := run(io.Discard, table, tinyScale, "MI100"); err != nil {
			t.Errorf("run(%s): %v", table, err)
		}
	}
	// The listing leads with the finder's footprint, the one kernel Table X
	// has no row for.
	var b strings.Builder
	if err := run(&b, "listing", tinyScale, "MI100"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "=== finder: "+isa.CompileFinder().Summary()+" ===\n") {
		t.Errorf("listing does not open with the finder's summary:\n%.200s", b.String())
	}
}

// TestRunCSV pins Tables VIII and IX and Fig. 2 byte for byte at tinyScale:
// the modelled times are a function of the input, whatever GOMAXPROCS or the
// interleaving (make stress repeats this under -race at -cpu 1,2,8).
func TestRunCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	for table, golden := range map[string]string{
		"8":    "testdata/table8_tiny.csv",
		"9":    "testdata/table9_tiny.csv",
		"fig2": "testdata/fig2_tiny.csv",
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := runCSV(&b, table, tinyScale); err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("-csv -table %s at scale %d:\n%s\nwant %s:\n%s", table, tinyScale, b.String(), golden, want)
		}
	}
	if err := runCSV(io.Discard, "7", tinyScale); err == nil {
		t.Error("csv for unsupported table accepted")
	}
}

func TestRunMeasuredTables(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tables are slow")
	}
	for _, table := range []string{"8", "9"} {
		if err := run(io.Discard, table, tinyScale, "MI100"); err != nil {
			t.Errorf("run(%s): %v", table, err)
		}
	}
}

func TestRunBadDevice(t *testing.T) {
	if err := run(io.Discard, "7", tinyScale, "H100"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestDebugBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("debug breakdown is slow")
	}
	if err := run(io.Discard, "debug", tinyScale, "MI100"); err != nil {
		t.Errorf("debug: %v", err)
	}
}
