// Command fedsim runs one federated training experiment in-process and
// emits the per-round metric series as CSV (stdout or a file).
//
// Examples:
//
//	fedsim -dataset synthetic -alg sarah -beta 5 -tau 20 -mu 0.1 -rounds 100
//	fedsim -dataset fashion -alg fedavg -beta 10 -tau 10 -batch 16 -csv out.csv
//	fedsim -dataset digits -model cnn -alg svrg -beta 7 -tau 20 -batch 64
//	fedsim -rounds 500 -checkpoint run.ckpt            # Ctrl-C safe, resumable
//	fedsim -secure -alg sarah -rounds 100              # masked aggregation
//	fedsim -trace run.jsonl -phases                    # per-round system trace
//	fedsim -trace-spans run.trace.json                 # Perfetto/chrome://tracing timeline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/chaos"
	"fedproxvr/internal/checkpoint"
	"fedproxvr/internal/clisetup"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/telemetry"
	"fedproxvr/internal/trace"
	"fedproxvr/internal/transport"
)

func main() {
	var (
		dataset   = flag.String("dataset", "synthetic", "synthetic | digits | fashion")
		model     = flag.String("model", "softmax", "softmax | cnn (cnn only with image datasets)")
		alg       = flag.String("alg", "sarah", "fedavg | fedprox | svrg | sarah")
		beta      = flag.Float64("beta", 5, "step-size parameter β (η = 1/(βL))")
		tau       = flag.Int("tau", 20, "local iterations τ")
		mu        = flag.Float64("mu", 0.1, "proximal penalty μ")
		batch     = flag.Int("batch", 32, "mini-batch size B")
		rounds    = flag.Int("rounds", 100, "global iterations T")
		devices   = flag.Int("devices", 0, "device count (0 = paper default)")
		samples   = flag.Int("samples", 300, "image samples per class (image datasets)")
		widthDiv  = flag.Int("cnn-width-div", 4, "CNN channel divisor (1 = paper width)")
		seed      = flag.Int64("seed", 2020, "experiment seed")
		parallel  = flag.Bool("parallel", true, "run devices on all cores")
		evalEvery = flag.Int("eval-every", 1, "evaluate metrics every k rounds")
		station   = flag.Bool("stationarity", false, "track ‖∇F̄‖² (extra full pass per eval)")
		fraction  = flag.Float64("fraction", 1, "fraction of devices sampled per round")
		dropout   = flag.Float64("dropout", 0, "per-round device failure probability")
		secure    = flag.Bool("secure", false, "aggregate through pairwise additive masking")
		ckptPath  = flag.String("checkpoint", "", "snapshot path; resumes if it exists")
		ckptEvery = flag.Int("checkpoint-every", 5, "snapshot every k rounds")
		csvPath   = flag.String("csv", "", "write series CSV to this path (default stdout)")
		tracePath = flag.String("trace", "", "write one JSONL system record per round to this path")
		phases    = flag.Bool("phases", false, "print the end-of-run phase-breakdown table to stderr")
		deadline  = flag.Duration("round-deadline", 0, "cut each round after this wall-clock budget (0 = wait for everyone)")
		minReport = flag.Int("min-report", 0, "cut each round once this many devices reported (0 = wait for everyone)")
		chaosPath = flag.String("chaos", "", "inject faults from this JSON schedule (see internal/chaos)")
		spansPath = flag.String("trace-spans", "", "write a Chrome trace-event JSON (open in Perfetto) to this path")
		spanLog   = flag.String("span-log", "", "write the span trace as JSONL to this path")
		codecStr  = flag.String("codec", "", "report wire-byte estimates for this codec (float64|float32|int16|int8|topk-delta); the in-process run itself is exact")
		topkFrac  = flag.Float64("topk-frac", transport.DefaultTopKFraction, "fraction of delta coordinates kept under -codec topk-delta")
		actProb   = flag.Float64("activate-prob", 0, "per-device per-round activation probability (0 = deterministic selection via -fraction)")
		telEvents = flag.String("telemetry-events", "", "append convergence alert events (loss_rising, nan_inf, …) as JSONL to this path")
	)
	flag.Parse()
	// Inverted comparisons so NaN is rejected too.
	if !(*fraction > 0 && *fraction <= 1) {
		fatal(fmt.Errorf("-fraction must be in (0,1], got %v", *fraction))
	}
	if !(*topkFrac > 0 && *topkFrac <= 1) {
		fatal(fmt.Errorf("-topk-frac must be in (0,1], got %v", *topkFrac))
	}
	if !(*actProb >= 0 && *actProb <= 1) {
		fatal(fmt.Errorf("-activate-prob must be in [0,1], got %v", *actProb))
	}

	task, err := clisetup.Task(*dataset, *model, *devices, *samples, *widthDiv, *seed)
	if err != nil {
		fatal(err)
	}
	cfg, err := clisetup.Config(*alg, *beta, task.L, *mu, *tau, *batch, *rounds)
	if err != nil {
		fatal(err)
	}
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.EvalEvery = *evalEvery
	cfg.TrackStationarity = *station
	cfg.ClientFraction = *fraction
	cfg.DropoutProb = *dropout
	cfg.SecureAgg = *secure
	cfg.RoundDeadline = *deadline
	cfg.MinReport = *minReport
	cfg.ActivateProb = *actProb

	// Ctrl-C cancels between rounds; with -checkpoint the run is resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r, err := fedproxvr.NewRunner(task, cfg)
	if err != nil {
		fatal(err)
	}

	if *chaosPath != "" {
		sched, err := chaos.Load(*chaosPath)
		if err != nil {
			fatal(err)
		}
		eng := r.Engine()
		eng.SetExecutor(chaos.NewExecutor(eng.Executor(), sched))
	}

	// Observability is opt-in: without -trace/-phases the engine takes no
	// timing samples and the run is byte-for-byte the historical one.
	var sinks []obs.Sink
	var summary *obs.Summary
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sinks = append(sinks, obs.NewJSONL(f))
	}
	if *phases {
		summary = &obs.Summary{}
		sinks = append(sinks, summary)
	}
	// Convergence telemetry: a per-run store ingests round stats through the
	// same sink fan-out, a probe on the aggregator adds drift/variance
	// diagnostics, and rule transitions append durably to the JSONL path.
	var telStore *telemetry.JobStore
	if *telEvents != "" {
		hub := telemetry.NewHub(telemetry.Options{})
		telStore = hub.Job(cfg.Name)
		telStore.SetTarget(*rounds)
		f, err := os.OpenFile(*telEvents, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		telStore.SetEventLog(f)
		sinks = append(sinks, telStore)
		telemetry.Attach(r.Engine(), telStore)
	}
	var collector *obs.Collector
	if len(sinks) > 0 {
		collector = obs.NewCollector(sinks...)
		r.Engine().SetStats(collector)
	}

	// Span tracing is likewise opt-in; the tracer is exported after the run
	// (partial runs still produce a valid trace file).
	var tracer *trace.Tracer
	if *spansPath != "" || *spanLog != "" {
		tracer = trace.New("fedsim")
		r.Engine().SetTracer(tracer)
	}

	var series *metrics.Series
	if *ckptPath != "" {
		series, err = checkpoint.TrainContext(ctx, r.Engine(), *ckptPath, *ckptEvery)
		if err != nil && !errors.Is(err, context.Canceled) {
			fatal(err)
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "fedsim: interrupted; resume with -checkpoint %s\n", *ckptPath)
		}
	} else {
		series, err = r.RunContext(ctx)
		if err != nil && !errors.Is(err, context.Canceled) {
			fatal(err)
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "fedsim: interrupted; emitting partial series")
		}
	}
	if collector != nil {
		if err := collector.Close(); err != nil {
			fatal(err)
		}
	}
	if tracer != nil {
		if err := clisetup.ExportTrace(tracer, *spansPath, *spanLog); err != nil {
			fatal(err)
		}
	}

	out := os.Stdout
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := series.WriteCSV(out); err != nil {
		fatal(err)
	}
	last, _ := series.Last()
	fmt.Fprintf(os.Stderr, "%s: final loss %.4f, test acc %.2f%% after %d rounds\n",
		cfg.Name, last.TrainLoss, last.TestAcc*100, last.Round)
	if failed := series.TotalFailed(); failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d device report failures across the run; last round aggregated %d participants\n",
			cfg.Name, failed, last.Participants)
	}
	if telStore != nil {
		if active, _ := telStore.Health(); len(active) > 0 {
			fmt.Fprintf(os.Stderr, "%s: ALERT still firing at end of run: %s (events in %s)\n",
				cfg.Name, strings.Join(active, ","), *telEvents)
		}
	}
	if summary != nil {
		fmt.Fprintln(os.Stderr)
		if err := summary.WriteTable(os.Stderr); err != nil {
			fatal(err)
		}
	}

	// -codec prints what the distributed runtime would move per round for
	// this model (exact closed-form sizes) next to the exact float64 mode.
	// The in-process run above is always exact — this is the planning
	// estimate for fedserver/fedclient runs.
	if *codecStr != "" {
		codec, err := transport.ParseCodec(*codecStr)
		if err != nil {
			fatal(err)
		}
		dim := task.Model.Dim()
		topK := transport.TopKFor(*topkFrac, dim)
		fmt.Fprintf(os.Stderr, "%s: wire estimate at dim %d: %d bytes/round/device with codec %v vs %d in float64 (%.1fx smaller)\n",
			cfg.Name, dim, transport.RoundWireSize(codec, dim, topK, false), codec,
			transport.RoundWireSize(transport.CodecFloat64, dim, 0, false), transport.CompressionRatio(codec, dim, topK))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsim:", err)
	os.Exit(1)
}
