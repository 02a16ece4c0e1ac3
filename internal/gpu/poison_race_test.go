//go:build race

package gpu

import (
	"testing"

	"casoffinder/internal/gpu/device"
)

// TestPoisonFillsRecycledStorage: in race builds a recycled slice holds
// poisonByte until a take clears or overwrites it.
func TestPoisonFillsRecycledStorage(t *testing.T) {
	d := New(device.MI100())
	Recycle(d, make([]uint32, 8))
	s, ok := reuse[uint32](d, 8)
	if !ok {
		t.Fatal("the recycled slice was not kept")
	}
	for i, v := range s {
		if v != 0xA5A5A5A5 {
			t.Fatalf("recycled storage [%d] = %#x, want the poison 0xa5a5a5a5", i, v)
		}
	}
}
