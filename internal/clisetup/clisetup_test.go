package clisetup

import (
	"math"
	"testing"
)

// TestBuildersRejectOutOfRangeNumbers: a β that is not finite and positive
// and a negative image sample count are errors, not panics or a NaN run.
func TestBuildersRejectOutOfRangeNumbers(t *testing.T) {
	for _, beta := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if _, err := Config("sarah", beta, 1, 0.1, 5, 8, 2); err == nil {
			t.Errorf("Config accepted beta %v", beta)
		}
	}
	if _, err := Config("sarah", 5, 1, 0.1, 5, 8, 2); err != nil {
		t.Errorf("Config rejected beta 5: %v", err)
	}
	if _, err := Task("digits", "softmax", 2, -5, 1, 1); err == nil {
		t.Error("Task accepted -5 samples per class")
	}
	if _, err := Task("digits", "softmax", 2, 0, 1, 1); err != nil {
		t.Errorf("Task rejected 0 (default) samples per class: %v", err)
	}
}
