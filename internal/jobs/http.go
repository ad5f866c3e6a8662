package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// Handler returns the job admin API, mounted on the obs admin mux:
//
//	POST   /jobs             submit a Spec       → 201 Status | 400 | 409 | 429+Retry-After
//	GET    /jobs             list all jobs       → 200 []Status
//	GET    /jobs/{id}        one job's status    → 200 Status | 404
//	DELETE /jobs/{id}        cancel a job        → 200 Status | 404
//	GET    /jobs/{id}/healthz liveness per job   → 200 | 503 (FAILED)
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.Cancel(id); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		st, _ := m.Get(id)
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/healthz", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if st.State == Failed {
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("job %s FAILED: %s", st.ID, st.Error))
			return
		}
		// With telemetry attached, a live job's probe degrades on firing
		// alert rules, and a RUNNING job degrades when its ingest has gone
		// stale (wedged run: slot starvation, stuck executor). Terminal and
		// queued jobs are naturally quiet — only RUNNING is held to the
		// staleness budget.
		if hub := m.opt.Telemetry; hub != nil {
			if js, ok := hub.Get(st.ID); ok {
				active, stale := js.Health()
				if !st.State.Terminal() && len(active) > 0 {
					httpError(w, http.StatusServiceUnavailable,
						fmt.Errorf("job %s %s: alerts firing: %s", st.ID, st.State, strings.Join(active, ",")))
					return
				}
				if st.State == Running && stale {
					httpError(w, http.StatusServiceUnavailable,
						fmt.Errorf("job %s RUNNING but telemetry ingest is stale", st.ID))
					return
				}
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok %s round %d/%d\n", st.State, st.Round, st.Rounds)
	})
	return mux
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("jobs: bad spec: %w", err))
		return
	}
	st, err := m.Submit(sp)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, st)
	case errors.Is(err, ErrSaturated):
		// Admission control: the fleet is full; tell the client to retry
		// in a second.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
	case isConflict(err):
		httpError(w, http.StatusConflict, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}

// isConflict matches Submit's duplicate-ID rejection.
func isConflict(err error) bool {
	return err != nil && errors.Is(err, errDuplicate)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
