package gpu

import "reflect"

// The runtime frontends keep a buffer's contents in an ordinary Go slice.
// A device recycles those slices: a released OpenCL memory object or a
// destroyed SYCL buffer hands its storage back, and the next buffer of the
// same element type and a similar length reuses it instead of allocating.
// Real runtimes serve buffers from pooled device memory under the same
// lifetime rules; here the pool only spares the host allocator and the
// garbage collector. It sits beside the budget accounting (Alloc, Free) and
// changes nothing the model prices.

// poolRetainBytes caps the storage one device keeps for reuse. It holds a
// default-size chunk's buffers (1 MiB of bases is about 7 MiB of finder
// outputs, sequence and candidates) with room to spare; storage returned
// past it is left to the garbage collector.
const poolRetainBytes = 16 << 20

// poolMaxFree caps the free slices kept per element type, which bounds the
// best-fit scan of a take.
const poolMaxFree = 64

// poolSlack bounds reuse: a take of n elements reuses a free slice whose
// capacity is in [n, poolSlack·n], so a small buffer never pins a large one.
const poolSlack = 2

// storagePool is a device's free storage, one list per element type. The
// device's mutex guards it.
type storagePool struct {
	lists    map[reflect.Type]any // *freeList[T], keyed by T
	retained int64
}

// freeList is the free storage of one element type.
type freeList[T any] struct {
	slices [][]T
}

// Take returns storage for n elements of a buffer on d, zeroed: reused
// storage is cleared, fresh storage is exact-size.
func Take[T any](d *Device, n int) []T {
	if s, ok := reuse[T](d, n); ok {
		clear(s)
		return s
	}
	return make([]T, n)
}

// TakeCopy returns storage for a buffer on d initialised from src, of
// exactly its length. Reused storage is overwritten by the copy, so it is
// not cleared first.
func TakeCopy[T any](d *Device, src []T) []T {
	s, ok := reuse[T](d, len(src))
	if !ok {
		s = make([]T, len(src))
	}
	copy(s, src)
	return s
}

// Recycle returns storage that Take or TakeCopy handed out on d. The caller
// gives up the slice: the next take may hand it to another buffer. Storage
// past the device's retention cap is dropped.
func Recycle[T any](d *Device, s []T) {
	s = s[:cap(s)]
	typ := reflect.TypeFor[T]()
	size := int64(len(s)) * int64(typ.Size())
	if size == 0 {
		return
	}
	poison(s)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pool.retained+size > poolRetainBytes {
		return
	}
	fl, _ := d.pool.lists[typ].(*freeList[T])
	if fl == nil {
		if d.pool.lists == nil {
			d.pool.lists = make(map[reflect.Type]any)
		}
		fl = &freeList[T]{}
		d.pool.lists[typ] = fl
	}
	if len(fl.slices) == poolMaxFree {
		return
	}
	fl.slices = append(fl.slices, s)
	d.pool.retained += size
}

// reuse takes the smallest free slice that fits n elements within the
// slack, resliced to n; its contents are whatever the last owner left.
func reuse[T any](d *Device, n int) ([]T, bool) {
	if n <= 0 {
		return nil, false
	}
	typ := reflect.TypeFor[T]()
	d.mu.Lock()
	defer d.mu.Unlock()
	fl, _ := d.pool.lists[typ].(*freeList[T])
	if fl == nil {
		return nil, false
	}
	best := -1
	for i, s := range fl.slices {
		if c := cap(s); c >= n && c <= poolSlack*n && (best < 0 || c < cap(fl.slices[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	s := fl.slices[best]
	last := len(fl.slices) - 1
	fl.slices[best] = fl.slices[last]
	fl.slices[last] = nil
	fl.slices = fl.slices[:last]
	d.pool.retained -= int64(cap(s)) * int64(typ.Size())
	return s[:n], true
}
