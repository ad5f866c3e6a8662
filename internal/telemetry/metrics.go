package telemetry

import (
	"io"
	"strconv"

	"fedproxvr/internal/obs"
)

// WritePrometheus implements obs.MetricsWriter: the hub's alert counters
// in Prometheus text exposition 0.0.4, deterministically ordered (jobs in
// creation order, rules in fixed rule order) so scrapes — and golden tests
// — are stable. Families:
//
//	fed_alert_total{job,rule}              counter: times each rule fired
//	fed_alert_active{job,rule}             gauge: 1 while firing
//	fed_alert_events_total{job}            counter: fire+clear transitions
//	fed_telemetry_rounds_ingested_total{job} counter: rounds in the store
//	fed_telemetry_client_seconds{job}      histogram: client latencies
func (h *Hub) WritePrometheus(w io.Writer) error {
	ids := h.List()
	type row struct {
		id string
		c  counters
	}
	rows := make([]row, 0, len(ids))
	for _, id := range ids {
		js, ok := h.Get(id)
		if !ok {
			continue
		}
		rows = append(rows, row{id: id, c: js.snapshot()})
	}

	bw := &obs.ErrWriter{W: w}
	bw.Printf("# HELP fed_alert_total Times each telemetry alert rule transitioned to firing, per job.\n")
	bw.Printf("# TYPE fed_alert_total counter\n")
	for _, r := range rows {
		for _, rule := range RuleNames {
			bw.Printf("fed_alert_total{job=%q,rule=%q} %d\n", r.id, rule, r.c.alertsTotal[rule])
		}
	}
	bw.Printf("# HELP fed_alert_active Whether a telemetry alert rule is currently firing (1) or not (0), per job.\n")
	bw.Printf("# TYPE fed_alert_active gauge\n")
	for _, r := range rows {
		for _, rule := range RuleNames {
			v := 0
			if r.c.active[rule] {
				v = 1
			}
			bw.Printf("fed_alert_active{job=%q,rule=%q} %d\n", r.id, rule, v)
		}
	}
	bw.Printf("# HELP fed_alert_events_total Alert state transitions (fires plus clears) emitted, per job.\n")
	bw.Printf("# TYPE fed_alert_events_total counter\n")
	for _, r := range rows {
		bw.Printf("fed_alert_events_total{job=%q} %d\n", r.id, r.c.eventsTotal)
	}
	bw.Printf("# HELP fed_telemetry_rounds_ingested_total Rounds ingested into the telemetry store, per job.\n")
	bw.Printf("# TYPE fed_telemetry_rounds_ingested_total counter\n")
	for _, r := range rows {
		bw.Printf("fed_telemetry_rounds_ingested_total{job=%q} %d\n", r.id, r.c.ingested)
	}
	bw.Printf("# HELP fed_telemetry_client_seconds Per-client round latencies observed by the telemetry store (log-bucketed), per job.\n")
	bw.Printf("# TYPE fed_telemetry_client_seconds histogram\n")
	for _, r := range rows {
		var cum int64
		for i, bound := range latBounds {
			cum += r.c.latCounts[i]
			bw.Printf("fed_telemetry_client_seconds_bucket{job=%q,le=%q} %d\n",
				r.id, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += r.c.latCounts[len(latBounds)]
		bw.Printf("fed_telemetry_client_seconds_bucket{job=%q,le=\"+Inf\"} %d\n", r.id, cum)
		bw.Printf("fed_telemetry_client_seconds_sum{job=%q} %g\n", r.id, r.c.latSum)
		bw.Printf("fed_telemetry_client_seconds_count{job=%q} %d\n", r.id, r.c.latN)
	}
	return bw.Err
}
