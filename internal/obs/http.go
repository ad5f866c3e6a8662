package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"time"
)

// MetricsWriter emits extra Prometheus text-exposition lines appended to
// /metrics after the registry's own series — how the jobs control plane
// publishes its per-job fed_jobs_* gauges on the same scrape endpoint.
type MetricsWriter interface {
	WritePrometheus(w io.Writer) error
}

// AdminOptions tunes the admin mux endpoints.
type AdminOptions struct {
	// StaleAfter makes /healthz report non-ok (HTTP 503, status "stale")
	// when more than this duration has passed since the last completed
	// round — a wedged run (e.g. a coordinator stuck below quorum) stops
	// probing healthy. 0 (the default) disables the staleness check. A run
	// that has not completed its first round is never considered stale.
	StaleAfter time.Duration
	// Extra expositors are appended to /metrics after the registry's
	// series, in order.
	Extra []MetricsWriter
	// Mounts adds handlers to the admin mux by pattern — e.g. the jobs API
	// at "/jobs" and "/jobs/" (which also serves per-job healthz).
	Mounts map[string]http.Handler
}

// NewAdminMux builds the coordinator's admin endpoint: the registry's
// Prometheus exposition at /metrics, a liveness probe at /healthz, build
// identification at /buildz, and the standard net/http/pprof profiling
// handlers under /debug/pprof/. The handlers are mounted explicitly
// (rather than importing net/http/pprof for its DefaultServeMux side
// effect) so the admin mux can be served on a dedicated listener without
// exposing pprof on any other server the process runs.
func NewAdminMux(reg *Registry, opt AdminOptions) *http.ServeMux {
	mux := http.NewServeMux()
	if len(opt.Extra) == 0 {
		mux.Handle("/metrics", reg)
	} else {
		extra := opt.Extra
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
			for _, mw := range extra {
				_ = mw.WritePrometheus(w)
			}
		})
	}
	for pattern, h := range opt.Mounts {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// The historical keys ("status", "round") keep their shape; the age
		// field is additive, and null before the first round.
		status := "ok"
		age := "null"
		if d, ok := reg.LastRoundAge(); ok {
			age = fmt.Sprintf("%.3f", d.Seconds())
			if opt.StaleAfter > 0 && d > opt.StaleAfter {
				status = "stale"
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		}
		fmt.Fprintf(w, "{\"status\":%q,\"round\":%d,\"last_round_age_seconds\":%s}\n",
			status, reg.Round(), age)
	})
	mux.HandleFunc("/buildz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(buildz())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildInfo is the /buildz document: enough to identify a deployed binary
// from its admin port.
type buildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Time      string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

func buildz() buildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return buildInfo{GoVersion: "unknown"}
	}
	out := buildInfo{
		GoVersion: bi.GoVersion,
		Path:      bi.Path,
		Module:    bi.Main.Path,
		Version:   bi.Main.Version,
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.time":
			out.Time = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}
