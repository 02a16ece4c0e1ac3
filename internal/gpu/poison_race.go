//go:build race

package gpu

// poisonByte fills recycled storage in race-detector builds. A buffer that
// reads storage its API did not initialise, or a slice used after its
// buffer was released, then sees 0xA5 bytes instead of plausible zeros, and
// the hits or counters of the run change.
const poisonByte = 0xA5

// poison fills s with poisonByte. Only the element types of the
// simulator's buffers are poisoned; any other is left as it is.
func poison[T any](s []T) {
	switch v := any(s).(type) {
	case []byte:
		fill(v, poisonByte)
	case []uint16:
		fill(v, 0xA5A5)
	case []uint32:
		fill(v, 0xA5A5A5A5)
	case []int32:
		fill(v, -0x5A5A5A5B) // 0xA5A5A5A5
	}
}

func fill[E any](s []E, v E) {
	for i := range s {
		s[i] = v
	}
}
