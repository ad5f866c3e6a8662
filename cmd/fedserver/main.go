// Command fedserver is the coordinator of the distributed runtime: it
// waits for -devices workers (cmd/fedclient) to connect over TCP, then
// drives federated rounds and prints per-round metrics.
//
// Server and clients must be started with the same dataset flags and seed
// so that every client regenerates its own shard deterministically (a real
// deployment would read local data instead; the generator stands in for
// it — see DESIGN.md).
//
// Example (one server, three clients):
//
//	fedserver -addr :7070 -devices 3 -dataset synthetic -rounds 50 &
//	for i in 0 1 2; do fedclient -addr localhost:7070 -id $i -devices 3 -dataset synthetic & done
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fedproxvr/internal/clisetup"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/jobs"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/telemetry"
	"fedproxvr/internal/trace"
	"fedproxvr/internal/transport"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		devices    = flag.Int("devices", 3, "number of workers to wait for")
		dataset    = flag.String("dataset", "synthetic", "synthetic | digits | fashion")
		samples    = flag.Int("samples", 120, "image samples per class (image datasets)")
		alg        = flag.String("alg", "sarah", "fedavg | fedprox | svrg | sarah")
		beta       = flag.Float64("beta", 5, "step-size parameter β")
		tau        = flag.Int("tau", 20, "local iterations τ")
		mu         = flag.Float64("mu", 0.1, "proximal penalty μ")
		batch      = flag.Int("batch", 16, "mini-batch size B")
		rounds     = flag.Int("rounds", 50, "global iterations T")
		fraction   = flag.Float64("fraction", 1, "fraction of workers contacted per round")
		dropout    = flag.Float64("dropout", 0, "per-round simulated report-failure probability")
		seed       = flag.Int64("seed", 2020, "shared experiment seed")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-message network timeout")
		retries    = flag.Int("retries", 1, "per-round retries for a worker's application-level failure (>= 0; every worker is asked once more than this)")
		backoff    = flag.Duration("retry-backoff", 50*time.Millisecond, "pause before each retry")
		quorum     = flag.Int("quorum", 1, "minimum peers (workers, or shard nodes with -tree-fanout) that must report, or the round is skipped; at most the peers waited for")
		maxSkip    = flag.Int("max-failed-rounds", 3, "consecutive sub-quorum rounds tolerated before aborting")
		admin      = flag.String("admin", "", "HTTP admin address serving /metrics, /healthz, /buildz, /debug/pprof/ (empty = off)")
		staleAft   = flag.Duration("health-stale-after", 0, "/healthz reports stale (503) this long after the last round (0 = off)")
		tracePth   = flag.String("trace", "", "write one JSONL system record per round to this path")
		spansPth   = flag.String("trace-spans", "", "write a Chrome trace-event JSON (open in Perfetto) to this path")
		spanLog    = flag.String("span-log", "", "write the span trace as JSONL to this path")
		deadline   = flag.Duration("round-deadline", 0, "cut each round after this wall-clock budget (0 = wait for everyone)")
		minRep     = flag.Int("min-report", 0, "cut each round once this many workers reported (0 = wait for everyone)")
		codecStr   = flag.String("codec", "float64", "wire codec: float64 | float32 | int16 | int8 | topk-delta")
		topkFrac   = flag.Float64("topk-frac", transport.DefaultTopKFraction, "fraction of delta coordinates kept per round under -codec topk-delta")
		fanout     = flag.Int("tree-fanout", 0, "run an aggregation tree over this many shard nodes instead of flat workers (0 = flat)")
		virtDev    = flag.Int("virtual-devices", 0, "total virtual devices the tree drives, split contiguously across the shard nodes (tree mode only)")
		actProb    = flag.Float64("activate-prob", 0, "per-device per-round activation probability (0 = deterministic selection via -fraction)")
		stateDir   = flag.String("state-dir", "", "durable job state directory: run the multi-job control plane (jobs submitted over -admin's /jobs API) instead of a single TCP round loop")
		maxJobs    = flag.Int("max-jobs", 8, "live jobs admitted before POST /jobs returns 429 (with -state-dir)")
		slots      = flag.Int("slots", 1, "jobs training a round concurrently (with -state-dir)")
		jobLease   = flag.String("job", "", "lease this coordinator to one job ID; workers must present the same lease in their Hello")
		jobEpoch   = flag.Int64("lease-epoch", 0, "lease epoch handed out with -job; a worker presenting a stale epoch is rejected and told the current lease")
		telRounds  = flag.Int("telemetry-rounds", 512, "per-job telemetry ring size in rounds (with -state-dir; 0 disables convergence telemetry)")
		lossRising = flag.Int("alert-loss-rising", 3, "fire loss_rising after this many consecutive train-loss rises (negative = off)")
		gradEps    = flag.Float64("alert-grad-eps", 0, "grad_norm_stall floor ε: alert when ‖∇f‖² plateaus above it (0 = off)")
		gradStall  = flag.Int("alert-grad-stall", 5, "rounds of ‖∇f‖² plateau above -alert-grad-eps before grad_norm_stall fires")
		stragRatio = flag.Float64("alert-straggler-ratio", 0, "fire straggler_ratio when this share of the cohort is cut as stragglers (0 = off)")
	)
	flag.Parse()
	if *stateDir != "" {
		var hub *telemetry.Hub
		if *telRounds > 0 {
			hub = telemetry.NewHub(telemetry.Options{
				Rounds:     *telRounds,
				StaleAfter: *staleAft,
				Rules: telemetry.RuleConfig{
					LossRisingK:    *lossRising,
					GradStallEps:   *gradEps,
					GradStallK:     *gradStall,
					StragglerRatio: *stragRatio,
				},
			})
		}
		runJobsMode(*stateDir, *admin, *maxJobs, *slots, hub)
		return
	}
	codec, err := transport.ParseCodec(*codecStr)
	if err != nil {
		fatal(err)
	}

	// In tree mode the data is partitioned over the VIRTUAL device cohort;
	// each fedclient shard node regenerates its contiguous slice of it.
	peers, nDev := *devices, *devices
	if *fanout > 0 {
		if *virtDev < *fanout {
			fatal(fmt.Errorf("-virtual-devices (%d) must be >= -tree-fanout (%d)", *virtDev, *fanout))
		}
		peers, nDev = *fanout, *virtDev
	} else if *virtDev > 0 {
		fatal(fmt.Errorf("-virtual-devices needs -tree-fanout"))
	}
	// Refuse bad flags before blocking on peer connections. The inverted
	// comparisons reject NaN too; SetTopKFrac checks -topk-frac again.
	switch {
	case !(*fraction > 0 && *fraction <= 1):
		fatal(fmt.Errorf("-fraction must be in (0,1], got %v", *fraction))
	case !(*topkFrac > 0 && *topkFrac <= 1):
		fatal(fmt.Errorf("-topk-frac must be in (0,1], got %v", *topkFrac))
	case !(*actProb >= 0 && *actProb <= 1):
		fatal(fmt.Errorf("-activate-prob must be in [0,1], got %v", *actProb))
	case *retries < 0:
		fatal(fmt.Errorf("-retries must be >= 0, got %d", *retries))
	case *quorum > peers:
		fatal(fmt.Errorf("-quorum %d exceeds the %d %s the server waits for: no round could reach it", *quorum, peers, role(*fanout > 0)))
	}

	task, err := clisetup.Task(*dataset, "softmax", nDev, *samples, 1, *seed)
	if err != nil {
		fatal(err)
	}
	cfg, err := clisetup.Config(*alg, *beta, task.L, *mu, *tau, *batch, *rounds)
	if err != nil {
		fatal(err)
	}
	cfg.Seed = *seed
	cfg.Test = task.Test
	cfg.ClientFraction = *fraction
	cfg.DropoutProb = *dropout
	cfg.RoundDeadline = *deadline
	cfg.MinReport = *minRep
	cfg.ActivateProb = *actProb

	lease := ""
	if *jobLease != "" {
		lease = fmt.Sprintf(", lease %s@%d", *jobLease, *jobEpoch)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The bound address, so a -addr with port 0 tells clients where to dial.
	fmt.Printf("fedserver: waiting for %d %s on %s (%d devices%s) …\n", peers, role(*fanout > 0), ln.Addr(), nDev, lease)
	// One constructor for every shape: the peers' Hellos say whether they
	// are workers or tree nodes, and an empty lease means none.
	coord, err := transport.NewLeasedCoordinatorOn(ln, peers, *timeout, *jobLease, *jobEpoch)
	if err != nil {
		fatal(err)
	}
	defer coord.Close()
	// Refuse before round 1 a fleet of the other shape or size.
	if coord.Tree() != (*fanout > 0) || coord.VirtualDevices() != nDev {
		fatal(fmt.Errorf("the %d peers said Hello as %s owning %d devices, but the server's flags expect %s owning %d: "+
			"start fedclient with the server's -devices, -tree-fanout and -virtual-devices",
			peers, role(coord.Tree()), coord.VirtualDevices(), role(*fanout > 0), nDev))
	}
	coord.SetCodec(codec)
	if err := coord.SetTopKFrac(*topkFrac); err != nil {
		fatal(err)
	}
	if *fanout > 0 {
		fmt.Printf("fedserver: all %d shard nodes connected (%d virtual devices), wire codec %v\n", *fanout, coord.VirtualDevices(), codec)
	} else {
		fmt.Printf("fedserver: all workers connected (weights %v), wire codec %v\n", coord.Weights(), codec)
	}
	coord.SetFaultPolicy(transport.FaultPolicy{
		MaxRetries:      *retries,
		RetryBackoff:    *backoff,
		MinParticipants: *quorum,
		MaxFailedRounds: *maxSkip,
	})
	coord.SetFaultHandler(func(id int, err error) {
		fmt.Fprintf(os.Stderr, "fedserver: worker %d dropped from the round: %v (it may rejoin between rounds)\n", id, err)
	})

	w0 := make([]float64, task.Model.Dim())
	if task.InitW != nil {
		copy(w0, task.InitW)
	}
	trainSets := task.Part.Clients
	if *fanout > 0 {
		trainSets = nil // the tree root holds no training shards
	}
	eng, err := coord.Engine(w0, cfg, task.Model, trainSets)
	if err != nil {
		fatal(err)
	}

	// Observability: -admin and/or -trace enable per-round collection. The
	// in-process registry backs /metrics regardless of whether the run has
	// started; the summary table prints after the run.
	var summary *obs.Summary
	var collector *obs.Collector
	if *admin != "" || *tracePth != "" {
		reg := &obs.Registry{}
		summary = &obs.Summary{}
		sinks := []obs.Sink{reg, summary}
		if *tracePth != "" {
			f, err := os.Create(*tracePth)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			sinks = append(sinks, obs.NewJSONL(f))
		}
		collector = obs.NewCollector(sinks...)
		eng.SetStats(collector)
		if *admin != "" {
			mux := obs.NewAdminMux(reg, obs.AdminOptions{StaleAfter: *staleAft})
			go func() {
				if err := http.ListenAndServe(*admin, mux); err != nil {
					fmt.Fprintf(os.Stderr, "fedserver: admin endpoint: %v\n", err)
				}
			}()
			fmt.Printf("fedserver: admin endpoint on http://%s (/metrics, /healthz, /buildz, /debug/pprof/)\n", *admin)
		}
	}

	// Span tracing: the engine forwards the tracer to the TCP executor, which
	// propagates the trace context in round requests; workers that ran with
	// -trace-spans ship their solve spans back for one multi-process timeline.
	var tracer *trace.Tracer
	if *spansPth != "" || *spanLog != "" {
		tracer = trace.New("fedserver")
		eng.SetTracer(tracer)
	}

	completed := 0 // the last round the run completed, for the end-of-run line
	eng.OnRound(func(info engine.RoundInfo) error {
		completed = info.Round
		if info.Failed > 0 || info.Stragglers > 0 {
			fmt.Fprintf(os.Stderr, "fedserver: round %d: %d/%d workers reported (%d failed, %d cut as stragglers)\n",
				info.Round, len(info.Participants),
				len(info.Participants)+info.Failed+info.Stragglers,
				info.Failed, info.Stragglers)
		}
		return nil
	})
	// Graceful shutdown: SIGTERM/SIGINT cancels the run at the next round
	// boundary (the engine checks ctx between rounds — an in-flight round
	// finishes or is abandoned by its own deadline policy), sinks are
	// flushed, and the process exits 0.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()
	start := time.Now()
	series, err := eng.Run(ctx)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatal(err)
	}
	coord.Shutdown()
	if collector != nil {
		if err := collector.Close(); err != nil {
			fatal(err)
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "fedserver: interrupted — stopped at a round boundary, sinks flushed")
	}
	if tracer != nil {
		if err := clisetup.ExportTrace(tracer, *spansPth, *spanLog); err != nil {
			fatal(err)
		}
	}
	if err := series.WriteCSV(os.Stdout); err != nil {
		fatal(err)
	}
	last, _ := series.Last()
	unit := "participants"
	if *fanout > 0 {
		// The engine's cohort is the shard nodes; device-level totals are in
		// the per-round stats (-trace / -admin).
		unit = "shards reported"
	}
	// After a SIGTERM the run stops short of -rounds: the line names the
	// rounds it completed and the round its loss was measured at.
	fmt.Fprintf(os.Stderr, "fedserver: %d rounds in %s, loss %.4f and acc %.2f%% at round %d, %d %s that round, %d failures total\n",
		completed, time.Since(start).Round(time.Millisecond), last.TrainLoss, last.TestAcc*100,
		last.Round, last.Participants, unit, series.TotalFailed())
	if summary != nil {
		sent, recv := coord.Bandwidth()
		fmt.Fprintf(os.Stderr, "fedserver: %d bytes sent, %d received over the run (codec %v)\n", sent, recv, codec)
		fmt.Fprintln(os.Stderr)
		if err := summary.WriteTable(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// runJobsMode runs the multi-job control plane: a crash-recovering job
// manager over -state-dir, with the job API and per-job metrics served on
// the admin endpoint. SIGTERM/SIGINT stops gracefully — in-flight rounds
// finish, checkpoints are fsynced, running jobs yield back to PENDING — and
// the process exits 0; a later incarnation (epoch bumped) resumes every
// non-terminal job at its last completed round, bit-identical.
func runJobsMode(stateDir, adminAddr string, maxJobs, slots int, hub *telemetry.Hub) {
	if adminAddr == "" {
		fatal(fmt.Errorf("-state-dir needs -admin (the /jobs API is served on the admin endpoint)"))
	}
	m, err := jobs.Open(jobs.Options{Dir: stateDir, MaxJobs: maxJobs, Slots: slots, Telemetry: hub})
	if err != nil {
		fatal(err)
	}
	jobsAPI := m.Handler()
	extra := []obs.MetricsWriter{m, obs.RuntimeWriter{}}
	mounts := map[string]http.Handler{"/jobs": jobsAPI, "/jobs/": jobsAPI}
	endpoints := "/jobs, /metrics"
	if hub != nil {
		extra = append(extra, hub)
		telAPI := hub.Handler()
		mounts["/api/v1/"] = telAPI
		mounts["/dash"] = telAPI
		mounts["/dash/"] = telAPI
		endpoints += ", /api/v1/jobs, /dash"
	}
	ln, err := net.Listen("tcp", adminAddr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: obs.NewAdminMux(nil, obs.AdminOptions{Extra: extra, Mounts: mounts})}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "fedserver: admin endpoint: %v\n", err)
		}
	}()
	fmt.Printf("fedserver: control plane epoch %d over %s — %d recovered job(s), admin http://%s (%s)\n",
		m.Epoch(), m.Dir(), len(m.List()), ln.Addr(), endpoints)

	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "fedserver: shutting down — finishing in-flight rounds, flushing job state …")
	m.Stop()
	srv.Close()
	fmt.Fprintln(os.Stderr, "fedserver: job state flushed; non-terminal jobs will resume on the next start")
}

// role names the peers of a flat fleet or of an aggregation tree.
func role(tree bool) string {
	if tree {
		return "tree shard nodes"
	}
	return "workers"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedserver:", err)
	os.Exit(1)
}
