//go:build !race

package gpu

// poison is a no-op outside race-detector builds; see poison_race.go.
func poison[T any](s []T) {}
