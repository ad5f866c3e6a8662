package jobs

import (
	"fmt"
	"io"
)

// WritePrometheus makes the Manager an obs.MetricsWriter: the control
// plane's series ride on the same /metrics endpoint as the engine's
// registry, under a fed_jobs_ prefix. Every family carries HELP and TYPE
// (held to obs.LintExposition), and lifecycle churn is exposed both ways —
// fed_jobs_state gauges for "where are jobs now", and the monotonic
// fed_jobs_transitions_total counters for "how many transitions ever
// happened", the rate-able form.
//
//	fed_jobs_epoch                          manager incarnation (lease epoch)
//	fed_jobs_registered                     jobs registered (all states)
//	fed_jobs_state{state="..."}             jobs currently in each state
//	fed_jobs_transitions_total{state="..."} transitions into each state
//	fed_jobs_round{job="..."}               per-job last completed round
//	fed_jobs_rounds_target{job="..."}       per-job configured total rounds
func (m *Manager) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ew := &errWriter{w: w}
	ew.printf("# HELP fed_jobs_epoch Manager incarnation number (the durable lease-fencing epoch).\n")
	ew.printf("# TYPE fed_jobs_epoch gauge\n")
	ew.printf("fed_jobs_epoch %d\n", m.epoch)
	ew.printf("# HELP fed_jobs_registered Jobs registered with this manager, in any lifecycle state.\n")
	ew.printf("# TYPE fed_jobs_registered gauge\n")
	ew.printf("fed_jobs_registered %d\n", len(m.order))
	counts := map[State]int{}
	for _, j := range m.jobs {
		counts[j.manifest.State]++
	}
	states := []State{Pending, Running, Done, Failed, Cancelled}
	ew.printf("# HELP fed_jobs_state Jobs currently in each lifecycle state.\n")
	ew.printf("# TYPE fed_jobs_state gauge\n")
	for _, s := range states {
		ew.printf("fed_jobs_state{state=%q} %d\n", s, counts[s])
	}
	ew.printf("# HELP fed_jobs_transitions_total Lifecycle transitions into each state since this incarnation started.\n")
	ew.printf("# TYPE fed_jobs_transitions_total counter\n")
	for _, s := range states {
		ew.printf("fed_jobs_transitions_total{state=%q} %d\n", s, m.transitions[s])
	}
	ew.printf("# HELP fed_jobs_round Last completed round per job.\n")
	ew.printf("# TYPE fed_jobs_round gauge\n")
	for _, id := range m.order {
		ew.printf("fed_jobs_round{job=%q} %d\n", id, m.jobs[id].round)
	}
	ew.printf("# HELP fed_jobs_rounds_target Configured total rounds per job.\n")
	ew.printf("# TYPE fed_jobs_rounds_target gauge\n")
	for _, id := range m.order {
		ew.printf("fed_jobs_rounds_target{job=%q} %d\n", id, m.jobs[id].spec.Rounds)
	}
	return ew.err
}

// errWriter is a sticky-error printf target so the exposition writer reads
// as straight-line code.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}
