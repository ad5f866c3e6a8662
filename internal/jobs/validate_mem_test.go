package jobs

import (
	"runtime"
	"testing"

	"fedproxvr/internal/clisetup"
)

// TestValidateBuildsNoSolverState: Validate builds a full runner per Submit
// and throws it away. For the largest model the spec grammar allows — the
// full-width paper CNN, whose evaluation workspace is tens of MB per clone —
// that must cost under 1 MB beyond generating the task and the server's own
// two dim-length vectors (the global model and the aggregation accumulator,
// 0.67 MB each at this model's 83 466 parameters): devices are data, and
// neither the template model nor any clone has a workspace until something
// is evaluated.
func TestValidateBuildsNoSolverState(t *testing.T) {
	s := Spec{ID: "cnn", Dataset: "digits", Model: "cnn", Devices: 8, Samples: 4, Rounds: 1}.withDefaults()
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	var server int64
	task := allocated(func() {
		tk, err := clisetup.Task(s.Dataset, s.Model, s.Devices, s.Samples, 1, s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		server = 2 * 8 * int64(tk.Model.Dim())
	})
	validate := allocated(func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	extra := validate - task - server
	t.Logf("task generation allocates %d bytes, Validate %d: %d beyond the task and the server's %d", task, validate, extra, server)
	if extra >= 1<<20 {
		t.Fatalf("Validate allocates %d bytes beyond its task (%d) and server vectors (%d): "+
			"solver or model scratch is built at set-up again", extra, task, server)
	}
}
