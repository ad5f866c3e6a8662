package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/clisetup"
	"fedproxvr/internal/jobs"
	"fedproxvr/internal/telemetry"
)

const jobSlots = 2

// jobBlock is how many rounds one jobs3 round-time sample averages over.
// The only per-round clock the control plane shows from outside is the
// telemetry hub's ingest stamp, which has millisecond resolution — too
// coarse for single ~7 ms rounds.
const jobBlock = 10

// jobsSystem is the jobs3 workload: three jobs on a two-slot manager over
// a fresh state directory, with a telemetry hub. The manager owns the
// engines, so everything is observed through jobs.Manager, the hub's
// series and the state directory.
type jobsSystem struct {
	sz    sizing
	specs []jobs.Spec
	tmp   string

	dir      string
	hub      *telemetry.Hub
	mgr      *jobs.Manager
	start    time.Time
	mallocs  uint64
	submitMs []float64

	// after the episode
	makespan  time.Duration
	series    [][]telemetry.Sample
	recoverMs float64
}

func newJobsSystem(sz sizing, specs []jobs.Spec, tmp string) *jobsSystem {
	return &jobsSystem{sz: sz, specs: specs, tmp: tmp}
}

// prepare opens the control plane and submits the three jobs at once;
// they start training as they are admitted.
func (s *jobsSystem) prepare(*tracing) error {
	var err error
	if s.dir, err = os.MkdirTemp(s.tmp, "state-"); err != nil {
		return err
	}
	// A ring that holds every round, so the series is the whole run.
	s.hub = telemetry.NewHub(telemetry.Options{Rounds: s.sz.rounds + 1})
	if s.mgr, err = jobs.Open(jobs.Options{Dir: s.dir, Slots: jobSlots, Telemetry: s.hub}); err != nil {
		return err
	}
	s.mallocs = mallocs()
	s.start = time.Now()
	for _, sp := range s.specs {
		t0 := time.Now()
		if _, err := s.mgr.Submit(sp); err != nil {
			return err
		}
		s.submitMs = append(s.submitMs, ms(time.Since(t0)))
	}
	return nil
}

func (s *jobsSystem) episode() (*episode, error) {
	s.mgr.Wait()
	s.makespan = time.Since(s.start)
	end := mallocs()
	ep := &episode{finite: true}
	total := len(s.specs) * s.sz.rounds
	allCrossed := true
	var finals []float64
	for i, st := range s.mgr.List() {
		js, ok := s.hub.Get(st.ID)
		if !ok {
			return nil, fmt.Errorf("job %s has no telemetry", st.ID)
		}
		samples := js.Series(1, 0, 0)
		s.series = append(s.series, samples)
		if st.State != jobs.Done || len(samples) != s.sz.rounds {
			// A job that did not finish counts as all its rounds failed.
			ep.attempted += s.sz.rounds * s.specs[i].Devices
			ep.failed += s.sz.rounds * s.specs[i].Devices
			continue
		}
		crossed := 0
		for _, sm := range samples {
			ep.attempted += sm.Participants + sm.Failed + sm.Stragglers
			ep.failed += sm.Failed + sm.Stragglers
			if math.IsNaN(sm.TrainLoss) || math.IsInf(sm.TrainLoss, 0) {
				ep.finite = false
			}
			if crossed == 0 && sm.TrainLoss <= s.sz.target {
				crossed = sm.Round
				// Until the last job crosses.
				ep.toTargetS = math.Max(ep.toTargetS, float64(sm.AtUnixMs-s.start.UnixMilli())/1000)
			}
		}
		allCrossed = allCrossed && crossed > 0
		ep.toTargetN += crossed
		finals = append(finals, samples[len(samples)-1].TrainLoss)
		for r := s.sz.warmup + jobBlock; r <= len(samples); r += jobBlock {
			ep.roundMs = append(ep.roundMs, float64(samples[r-1].AtUnixMs-samples[r-1-jobBlock].AtUnixMs)/jobBlock)
		}
	}
	if !allCrossed || len(finals) < len(s.specs) {
		ep.toTargetN = 0 // reads as "target not reached"
	}
	ep.finalLoss = sum(finals) / float64(max(len(finals), 1))
	// jobs3 rates are over the whole makespan: all jobs' rounds per second
	// from the first Submit until the last job is terminal.
	ep.timedRounds = total
	ep.timedWall = s.makespan.Seconds()
	ep.allocs = float64(end-s.mallocs) / float64(total)

	// The read side: a new incarnation opens the state the run wrote.
	s.mgr.Stop()
	t0 := time.Now()
	m2, err := jobs.Open(jobs.Options{Dir: s.dir, Slots: jobSlots})
	if err != nil {
		return nil, fmt.Errorf("reopening the populated state dir: %w", err)
	}
	s.recoverMs = ms(time.Since(t0))
	s.mgr = m2

	store, err := jobs.OpenStore(s.dir)
	if err != nil {
		return nil, err
	}
	for _, sp := range s.specs {
		ck, err := store.LoadCheckpoint(sp.ID)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", sp.ID, err)
		}
		if ck.Round != s.sz.rounds {
			return nil, fmt.Errorf("job %s: last checkpoint at round %d, want %d", sp.ID, ck.Round, s.sz.rounds)
		}
		ep.final = append(ep.final, ck.Global)
	}
	return ep, nil
}

func (s *jobsSystem) close() {
	if s.mgr != nil {
		s.mgr.Stop()
	}
	if s.hub != nil {
		s.hub.Close()
	}
	os.RemoveAll(s.dir)
}

// directRun trains a spec without the control plane, built the way
// jobs.Spec builds its private runner (and internal/jobs' own bit-identity
// tests build their reference).
func directRun(sp jobs.Spec) ([]float64, error) {
	task, err := clisetup.Task(sp.Dataset, sp.Model, sp.Devices, 120, 1, sp.Seed)
	if err != nil {
		return nil, err
	}
	cfg, err := clisetup.Config(sp.Alg, 5, task.L, 0.1, sp.Tau, sp.Batch, sp.Rounds)
	if err != nil {
		return nil, err
	}
	cfg.Name, cfg.Seed, cfg.Test = sp.ID, sp.Seed, task.Test
	r, err := fedproxvr.NewRunner(task, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := r.Engine().Run(context.Background()); err != nil {
		return nil, err
	}
	return r.Global(), nil
}

func (s *jobsSystem) verify(ep *episode) error {
	if err := verifyCommon(s.sz, ep); err != nil {
		return err
	}
	for _, st := range s.mgr.List() {
		if st.State != jobs.Done {
			return fmt.Errorf("job %s recovered as %s, want DONE", st.ID, st.State)
		}
	}
	// Untimed, so the three references may share the cores.
	errs := make([]error, len(s.specs))
	var wg sync.WaitGroup
	for i, sp := range s.specs {
		wg.Add(1)
		go func(i int, sp jobs.Spec) {
			defer wg.Done()
			want, err := directRun(sp)
			if err == nil && !reflect.DeepEqual(ep.final[i], want) {
				err = fmt.Errorf("job %s: last checkpoint is not bit-identical to an uninterrupted single-job run", sp.ID)
			}
			errs[i] = err
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// layers fills the jobs.* and engine.* per-layer metrics from the hub's
// series. saveMs is the checkpoint probe's median Save.
func (s *jobsSystem) layers(raw map[string]float64, saveMs float64) {
	var sel, exec, agg, eval, interval []float64
	var busy float64
	var first, last telemetry.Sample
	for _, samples := range s.series {
		for i, sm := range samples {
			raw["engine.participants"] += float64(sm.Participants)
			raw["engine.failed"] += float64(sm.Failed)
			raw["engine.stragglers"] += float64(sm.Stragglers)
			busy += sm.SelectSeconds + sm.ExecSeconds + sm.AggSeconds + sm.EvalSeconds
			if sm.Round <= s.sz.warmup {
				continue
			}
			sel = append(sel, sm.SelectSeconds*1000)
			exec = append(exec, sm.ExecSeconds*1000)
			agg = append(agg, sm.AggSeconds*1000)
			eval = append(eval, sm.EvalSeconds*1000)
			interval = append(interval, float64(sm.AtUnixMs-samples[i-1].AtUnixMs))
		}
		if len(samples) > s.sz.warmup {
			first, last = samples[s.sz.warmup], samples[len(samples)-1]
			raw["optim.grad_evals_per_round"] += float64(last.GradEvals-first.GradEvals) / float64(last.Round-first.Round) / float64(len(s.series))
		}
	}
	raw["engine.select_ms"] = median(sel)
	raw["engine.execute_ms"] = median(exec)
	raw["engine.aggregate_ms"] = median(agg)
	raw["engine.evaluate_ms"] = median(eval)
	raw["jobs.submit_ms"] = median(s.submitMs)
	// Millisecond-resolution stamps: the mean keeps the fraction a median
	// of integers would lose.
	raw["jobs.round_interval_ms"] = sum(interval) / float64(max(len(interval), 1))
	raw["jobs.makespan_s"] = s.makespan.Seconds()
	raw["jobs.sched_overhead_pct"] = 100 * (1 - busy/(s.makespan.Seconds()*jobSlots))
	raw["jobs.open_recover_ms"] = s.recoverMs
	saves := float64(len(s.specs) * s.sz.rounds)
	raw["checkpoint.stall_share_pct"] = 100 * saveMs / 1000 * saves / (s.makespan.Seconds() * jobSlots)
}
