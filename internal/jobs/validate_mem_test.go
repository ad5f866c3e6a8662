package jobs

import (
	"runtime"
	"testing"
)

// TestValidateBuildsNoSolverState: Validate runs under the manager's lock
// on every Submit, so it must check the spec without generating its data
// or building its engine. For the largest run the spec grammar allows —
// the full-width paper CNN, whose task and engine take megabytes — it
// allocates under 64 KB.
func TestValidateBuildsNoSolverState(t *testing.T) {
	s := Spec{ID: "cnn", Dataset: "digits", Model: "cnn", Devices: 8, Samples: 4, Rounds: 1}.withDefaults()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Validate allocates %d bytes", got)
	if got >= 64<<10 {
		t.Fatalf("Validate allocates %d bytes, want under 64 KB: it builds part of the run again", got)
	}
}
