package gpu

import (
	"errors"
	"testing"
)

func TestCheckNDRange(t *testing.T) {
	tests := []struct {
		name          string
		global, local int
		wantErr       error
	}{
		{"ok 1d", 1024, 256, nil},
		{"zero global", 0, 1, ErrInvalidRange},
		{"zero local", 64, 0, ErrInvalidRange},
		{"not dividing", 100, 256, ErrLocalSize},
		{"too large wg", 4096, 2048, ErrWorkGroupTooLarge},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkNDRange(tt.global, tt.local, 1024)
			if tt.wantErr == nil {
				if err != nil {
					t.Errorf("checkNDRange = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("checkNDRange = %v, want %v", err, tt.wantErr)
			}
		})
	}
}
