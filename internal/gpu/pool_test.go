package gpu

import (
	"reflect"
	"testing"

	"casoffinder/internal/gpu/device"
)

// TestPoolTakeZeroedExactLength: storage from Take has exactly the asked
// length and capacity when fresh, the asked length when reused, and reads
// zero either way, whatever the last owner wrote (and, under the race
// detector, whatever the poison filled in).
func TestPoolTakeZeroedExactLength(t *testing.T) {
	d := New(device.MI100())
	fresh := Take[uint32](d, 100)
	if len(fresh) != 100 || cap(fresh) != 100 {
		t.Fatalf("fresh Take(100): len %d cap %d, want 100 and 100", len(fresh), cap(fresh))
	}
	for i := range fresh {
		fresh[i] = 0xdeadbeef
	}
	Recycle(d, fresh)
	reused := Take[uint32](d, 60)
	if len(reused) != 60 {
		t.Fatalf("reused Take(60): len %d", len(reused))
	}
	if d.pool.retained != 0 {
		t.Fatalf("Take(60) of a 100-element free slice left %d bytes retained; want it reused", d.pool.retained)
	}
	for i, v := range reused {
		if v != 0 {
			t.Fatalf("reused storage [%d] = %#x, want 0", i, v)
		}
	}
	src := []uint32{1, 2, 3}
	Recycle(d, reused)
	if got := TakeCopy(d, src); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("TakeCopy = %v, want %v", got, src)
	}
	if got := Take[byte](d, 0); len(got) != 0 {
		t.Errorf("Take(0) has length %d", len(got))
	}
}

// TestPoolReuseWithinSlack: a take reuses the smallest free slice of its
// element type whose capacity is within [n, 2n], and nothing else.
func TestPoolReuseWithinSlack(t *testing.T) {
	d := New(device.MI100())
	Recycle(d, make([]byte, 300))
	Recycle(d, make([]byte, 120))
	Recycle(d, make([]uint16, 100))
	if got := Take[byte](d, 100); cap(got) != 120 {
		t.Errorf("Take(100) reused capacity %d, want the 120-byte slice", cap(got))
	}
	if got := Take[byte](d, 100); cap(got) != 100 {
		t.Errorf("Take(100) with only a 300-byte slice free: capacity %d, want a fresh 100", cap(got))
	}
	if got := Take[byte](d, 400); cap(got) != 400 {
		t.Errorf("Take(400) with only a 300-byte slice free: capacity %d, want a fresh 400", cap(got))
	}
	if want := int64(300 + 2*100); d.pool.retained != want {
		t.Errorf("retained %d bytes, want %d (the 300-byte slice and the uint16 one)", d.pool.retained, want)
	}
}

// TestPoolLiveBuffersDoNotAlias: storage handed to two live buffers is
// disjoint, fresh or reused.
func TestPoolLiveBuffersDoNotAlias(t *testing.T) {
	d := New(device.MI100())
	for round := 0; round < 3; round++ {
		a, b := Take[int32](d, 64), Take[int32](d, 64)
		for i := range b {
			b[i] = 9
		}
		for i := range a {
			a[i] = 7
		}
		for i := range a {
			if a[i] != 7 || b[i] != 9 {
				t.Fatalf("round %d: two live buffers share storage: [%d] = %d and %d", round, i, a[i], b[i])
			}
		}
		Recycle(d, a)
		Recycle(d, b)
	}
}

// TestPoolRetainedUnderCap: a burst of frees past the cap keeps at most
// poolRetainBytes, and at most poolMaxFree slices of one type.
func TestPoolRetainedUnderCap(t *testing.T) {
	d := New(device.MI100())
	const n, frees = 1 << 18, 2 * poolRetainBytes / (4 << 18)
	for i := 0; i < frees; i++ {
		Recycle(d, make([]uint32, n))
	}
	if d.pool.retained > poolRetainBytes || d.pool.retained < poolRetainBytes-4*n {
		t.Errorf("retained %d bytes after a burst of %d bytes of frees, want at most (and within a slice of) %d",
			d.pool.retained, frees*4*n, poolRetainBytes)
	}
	d = New(device.MI100())
	for i := 0; i < 2*poolMaxFree; i++ {
		Recycle(d, make([]byte, 1))
	}
	if got := len(d.pool.lists[reflect.TypeFor[byte]()].(*freeList[byte]).slices); got != poolMaxFree {
		t.Errorf("%d free byte slices kept, want the cap of %d", got, poolMaxFree)
	}
}
