package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fedproxvr/internal/checkpoint"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/telemetry"
)

// ErrSaturated is returned by Submit when the fleet already holds MaxJobs
// live (non-terminal) jobs; the HTTP layer maps it to 429 + Retry-After.
var ErrSaturated = errors.New("jobs: fleet is saturated")

// ErrUnknownJob is returned for operations on an ID the registry has never
// seen.
var ErrUnknownJob = errors.New("jobs: unknown job")

// errDuplicate marks a Submit whose ID is already registered (HTTP 409).
var errDuplicate = errors.New("jobs: duplicate job id")

// Options tunes a Manager.
type Options struct {
	// Dir is the durable state directory (required).
	Dir string
	// MaxJobs caps the live (PENDING + RUNNING) jobs admitted; Submit past
	// the cap returns ErrSaturated. 0 defaults to 8.
	MaxJobs int
	// Slots is how many jobs run a round concurrently — the control plane's
	// model of "M workers shared by N jobs". Each job yields its slot after
	// every round and re-queues at the tail (FIFO), so jobs interleave
	// round-robin rather than running to completion serially. 0 defaults
	// to 1.
	Slots int
	// Telemetry, when set, gives every job a round-indexed store in the
	// hub: the engine's stats path feeds it, a telemetry.Probe wraps the
	// job's aggregator for drift diagnostics, alert events mirror to
	// events.jsonl in the job's state directory, and /jobs/{id}/healthz
	// degrades to 503 while a RUNNING job has firing alerts or a stale
	// ingest (the hub's StaleAfter). Nil disables all of it — jobs run the
	// identical stats-free round loop.
	Telemetry *telemetry.Hub
}

func (o Options) withDefaults() Options {
	if o.MaxJobs == 0 {
		o.MaxJobs = 8
	}
	if o.Slots == 0 {
		o.Slots = 1
	}
	return o
}

// job is the in-memory side of one registered job. spec and the manifest's
// durable fields are guarded by the manager's mu; done closes when the
// job's runner goroutine has fully exited (its terminal or yield transition
// already recorded).
type job struct {
	spec      Spec
	manifest  Manifest
	round     int // last completed round (in-memory progress, ≥ manifest.Round)
	cancel    context.CancelFunc
	cancelled bool
	done      chan struct{}
}

// Manager is the job registry and scheduler: it recovers every durable job
// at Open, admits new ones under a saturation cap, runs them round-robin
// over a bounded slot pool, and records every lifecycle transition in each
// job's durable manifest.
type Manager struct {
	opt   Options
	store *Store
	epoch int64

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string        // registration order, for stable listings
	seq         int             // per-incarnation counter for assigned IDs
	transitions map[State]int64 // lifetime transition counts by target state

	slots  chan struct{} // counting semaphore; senders queue FIFO
	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	closed bool
}

// Open starts a manager incarnation over a state directory: the incarnation
// epoch is durably bumped (fencing any leases the previous incarnation
// issued), every job directory is scanned, and each non-terminal job —
// including jobs found RUNNING, i.e. interrupted by a crash — is re-enqueued
// to resume from its last intact checkpoint.
func Open(opt Options) (*Manager, error) {
	opt = opt.withDefaults()
	store, err := OpenStore(opt.Dir)
	if err != nil {
		return nil, err
	}
	epoch, err := store.BumpEpoch()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opt:         opt,
		store:       store,
		epoch:       epoch,
		jobs:        make(map[string]*job),
		transitions: make(map[State]int64),
		slots:       make(chan struct{}, opt.Slots),
		ctx:         ctx,
		stop:        cancel,
	}
	ids, err := store.List()
	if err != nil {
		cancel()
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		sp, err := store.LoadSpec(id)
		if err != nil {
			cancel()
			return nil, err
		}
		j := &job{spec: *sp, done: make(chan struct{})}
		if mf, err := store.LoadManifest(id); err == nil {
			j.manifest = *mf
		} else if os.IsNotExist(err) {
			// Submitted but never transitioned: a crash between SaveSpec and
			// the first SaveManifest. Recover it as freshly pending.
			j.manifest = Manifest{ID: id, State: Pending, Epoch: epoch}
		} else {
			cancel()
			return nil, err
		}
		j.round = j.manifest.Round
		m.jobs[id] = j
		m.order = append(m.order, id)
		if j.manifest.State.Terminal() {
			close(j.done)
			continue
		}
		// PENDING resumes; RUNNING means the previous incarnation died with
		// the job in flight — exactly the crash this control plane exists
		// for. Both re-enter the queue at their last checkpointed round.
		if err := m.transitionLocked(j, Pending, ""); err != nil {
			cancel()
			return nil, err
		}
		m.launchLocked(j)
	}
	return m, nil
}

// Epoch returns this incarnation's lease epoch.
func (m *Manager) Epoch() int64 { return m.epoch }

// Dir returns the manager's state directory.
func (m *Manager) Dir() string { return m.store.Dir() }

// transitionLocked records a state change durably (manifest rewrite +
// fsync) before it takes effect in memory. Callers hold m.mu.
func (m *Manager) transitionLocked(j *job, to State, errMsg string) error {
	from := j.manifest.State
	if from == "" {
		from = Pending
	}
	j.manifest.ID = j.spec.ID
	j.manifest.History = append(j.manifest.History, Transition{
		From: from, To: to, Epoch: m.epoch, Round: j.manifest.Round,
	})
	j.manifest.State = to
	j.manifest.Epoch = m.epoch
	j.manifest.Error = errMsg
	// Monotonic per-target-state counters: the fed_jobs_state gauges show
	// where jobs are now, these show how many transitions ever happened —
	// the rate-able series a scrape reader alerts on.
	m.transitions[to]++
	return m.store.SaveManifest(&j.manifest)
}

// Submit validates, persists and enqueues a new job. The returned status
// reflects the job as admitted (state PENDING). When the fleet already
// holds MaxJobs live jobs, Submit returns ErrSaturated and the spec is not
// persisted.
func (m *Manager) Submit(sp Spec) (Status, error) {
	sp = sp.withDefaults()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Status{}, fmt.Errorf("jobs: manager is stopped")
	}
	if sp.ID == "" {
		m.seq++
		sp.ID = fmt.Sprintf("job-%d-%d", m.epoch, m.seq)
	}
	if err := sp.Validate(); err != nil {
		return Status{}, err
	}
	if _, ok := m.jobs[sp.ID]; ok {
		return Status{}, fmt.Errorf("%w: %q", errDuplicate, sp.ID)
	}
	live := 0
	for _, j := range m.jobs {
		if !j.manifest.State.Terminal() {
			live++
		}
	}
	if live >= m.opt.MaxJobs {
		return Status{}, fmt.Errorf("%w: %d live jobs (max %d)", ErrSaturated, live, m.opt.MaxJobs)
	}
	if err := m.store.SaveSpec(&sp); err != nil {
		return Status{}, err
	}
	j := &job{spec: sp, manifest: Manifest{ID: sp.ID, State: Pending, Epoch: m.epoch}, done: make(chan struct{})}
	if err := m.transitionLocked(j, Pending, ""); err != nil {
		return Status{}, err
	}
	m.jobs[sp.ID] = j
	m.order = append(m.order, sp.ID)
	m.launchLocked(j)
	return m.statusLocked(j), nil
}

// launchLocked starts a job's runner goroutine. Callers hold m.mu.
func (m *Manager) launchLocked(j *job) {
	ctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	m.wg.Add(1)
	go m.runJob(ctx, j)
}

// Cancel stops a job: running rounds finish (cancellation lands between
// rounds), the last checkpoint stays durable, and the manifest records
// CANCELLED. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if j.manifest.State.Terminal() {
		m.mu.Unlock()
		return nil
	}
	j.cancelled = true
	cancel := j.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-j.done
	return nil
}

// Status is a job's externally visible state (the /jobs API document).
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Round  int    `json:"round"`
	Rounds int    `json:"rounds"`
	Epoch  int64  `json:"epoch"`
	Error  string `json:"error,omitempty"`
}

func (m *Manager) statusLocked(j *job) Status {
	return Status{
		ID:     j.spec.ID,
		State:  j.manifest.State,
		Round:  j.round,
		Rounds: j.spec.Rounds,
		Epoch:  j.manifest.Epoch,
		Error:  j.manifest.Error,
	}
}

// Get returns one job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return m.statusLocked(j), nil
}

// List returns every job's status in registration order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

// Wait blocks until every registered job has reached a terminal state or
// yielded (runner goroutines exited).
func (m *Manager) Wait() { m.wg.Wait() }

// Stop is the graceful shutdown: every running job finishes (or abandons)
// its in-flight round, its last checkpoint is already fsynced, and its
// manifest records the yield back to PENDING — so the next incarnation
// resumes it with nothing torn. Terminal transitions recorded before Stop
// stay terminal. Safe to call once; further Submits are rejected.
func (m *Manager) Stop() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
}

// runJob is one job's runner goroutine: acquire a slot, run rounds
// (yielding the slot at every boundary for round-robin fairness),
// checkpoint durably, and record the terminal transition.
func (m *Manager) runJob(ctx context.Context, j *job) {
	defer m.wg.Done()
	err := m.train(ctx, j)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err == nil:
		_ = m.transitionLocked(j, Done, "")
	case errors.Is(err, context.Canceled):
		if j.cancelled {
			_ = m.transitionLocked(j, Cancelled, "")
		} else {
			// Manager shutdown, not job cancellation: yield the job back to
			// PENDING so the next incarnation resumes it.
			_ = m.transitionLocked(j, Pending, "")
		}
	default:
		_ = m.transitionLocked(j, Failed, err.Error())
	}
	close(j.done)
}

// train runs a job's remaining rounds. The slot discipline: hold a slot
// while executing a round, release it at each round boundary and re-queue
// (channel senders are served FIFO, so N jobs over S slots interleave
// round-robin). Checkpoints rotate (ckpt → ckpt.prev) before each durable
// Save, so corruption of the newest file falls back one round, never to
// nothing.
func (m *Manager) train(ctx context.Context, j *job) error {
	r, err := j.spec.runner()
	if err != nil {
		return err
	}
	eng := r.Engine()
	if hub := m.opt.Telemetry; hub != nil {
		rules := hub.DefaultRules()
		if j.spec.MinParticipants > 1 {
			// The job's own quorum floor becomes its quorum_miss threshold.
			rules.QuorumMin = j.spec.MinParticipants
		}
		js := hub.JobWithRules(j.spec.ID, rules)
		js.SetTarget(j.spec.Rounds)
		if dir, derr := m.store.JobDir(j.spec.ID); derr == nil {
			// Durable alert trail next to the job's checkpoints; append mode
			// so a resumed job extends, never truncates, its history.
			f, ferr := os.OpenFile(filepath.Join(dir, "events.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				return ferr
			}
			js.SetEventLog(f)
			defer f.Close()
		}
		eng.SetStats(js)
		// The probe wraps whatever the spec installed (including the quorum
		// gate), so a vetoed round is still measured as the cohort that
		// reported.
		telemetry.Attach(eng, js)
	}
	if st, err := m.store.LoadCheckpoint(j.spec.ID); err == nil {
		if err := checkpoint.Restore(eng, st); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		m.mu.Lock()
		j.round = st.Round
		j.manifest.Round = st.Round
		m.mu.Unlock()
	} else if !os.IsNotExist(err) {
		return err
	}

	held := false
	acquire := func() error {
		select {
		case m.slots <- struct{}{}:
			held = true
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	release := func() {
		if held {
			<-m.slots
			held = false
		}
	}
	defer release()

	spec := j.spec
	ckptPath := m.store.CheckpointPath(spec.ID)
	unhook := eng.OnRound(func(info engine.RoundInfo) error {
		if info.Round%spec.CheckpointEvery == 0 || info.Round == spec.Rounds {
			if err := m.store.RotateCheckpoint(spec.ID); err != nil {
				return err
			}
			// Save encodes before it returns: the state may alias the
			// engine's model and history.
			if err := checkpoint.Save(ckptPath, &checkpoint.State{
				Name:   spec.ID,
				Round:  info.Round,
				Seed:   spec.Seed,
				Global: info.Global,
				Points: info.Series.Points,
			}); err != nil {
				return err
			}
			m.mu.Lock()
			j.manifest.Round = info.Round
			m.mu.Unlock()
		}
		m.mu.Lock()
		j.round = info.Round
		m.mu.Unlock()
		if info.Round < spec.Rounds {
			// Round boundary: yield the slot and re-queue behind the other
			// jobs. Run's own ctx check covers cancellation in between.
			release()
			return acquire()
		}
		return nil
	})
	defer unhook()

	if err := acquire(); err != nil {
		return err
	}
	m.mu.Lock()
	err = m.transitionLocked(j, Running, "")
	m.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = eng.Run(ctx)
	return err
}
