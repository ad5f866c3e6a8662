// Package jobs is the multi-job control plane: a registry and lifecycle
// manager that runs many federated training jobs over the shared engine,
// each with a durable spec, a WAL-style state manifest, and fsynced
// per-round checkpoints under its own directory — so a coordinator process
// SIGKILLed at any moment recovers every job at its last completed round
// boundary, bit-identical to an uninterrupted run.
//
// The determinism argument is the engine's: every RNG stream is re-keyed
// per round from a pure (seed, stream, round) hash (randx.RoundSeed), so a
// recovered job's remaining rounds draw exactly what the uninterrupted
// run's would have. A kill mid-round loses only the uncommitted round —
// state-wise the aborted attempt is a full-cohort dropout of that round,
// and the re-run after recovery replays it identically.
//
// Submit checks a spec without generating its data or building its
// engine (Spec.Validate): the ID, the round, device, quorum and
// checkpoint counts, the dataset, model and algorithm names, the numbers
// the task and engine builders refuse, and, for an image dataset, that
// the hold-out leaves every label a training sample. The job generates
// its data once, when it first runs. Admission is capped at
// Options.MaxJobs live jobs; a submission past the cap is refused with
// ErrSaturated, which the HTTP API answers with 429 and Retry-After: 1.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"fedproxvr/internal/checkpoint"
)

// State is a job's lifecycle state. PENDING and RUNNING are live; the rest
// are terminal. A job found RUNNING during recovery was interrupted by a
// crash and is re-enqueued as PENDING at its last checkpointed round.
type State string

const (
	Pending   State = "PENDING"
	Running   State = "RUNNING"
	Done      State = "DONE"
	Failed    State = "FAILED"
	Cancelled State = "CANCELLED"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// valid rejects states that never appear in a well-formed manifest.
func (s State) valid() bool {
	switch s {
	case Pending, Running, Done, Failed, Cancelled:
		return true
	}
	return false
}

// ManifestVersion guards the manifest's on-disk format.
const ManifestVersion = 1

// Transition is one recorded state change: which coordinator incarnation
// (epoch) moved the job, and the job's last checkpointed round at the time.
type Transition struct {
	From  State `json:"from"`
	To    State `json:"to"`
	Epoch int64 `json:"epoch"`
	Round int   `json:"round"`
}

// Manifest is a job's durable state record, rewritten atomically (temp
// file + rename + parent-dir fsync — the same discipline checkpoint.Save
// uses) at every transition, WAL-style: the full transition history rides
// along, so a recovering manager reads exactly how the job got where it is.
type Manifest struct {
	Version int          `json:"version"`
	ID      string       `json:"id"`
	State   State        `json:"state"`
	Epoch   int64        `json:"epoch"` // incarnation that last owned the job
	Round   int          `json:"round"` // last checkpointed round
	Error   string       `json:"error,omitempty"`
	History []Transition `json:"history,omitempty"`
}

// Store is the on-disk layout of the control plane's state directory:
//
//	<root>/epoch              manager incarnation counter
//	<root>/<job-id>/spec.json      durable job spec (immutable after submit)
//	<root>/<job-id>/manifest.json  state manifest (atomic rewrite per transition)
//	<root>/<job-id>/ckpt           latest per-round checkpoint
//	<root>/<job-id>/ckpt.prev      previous checkpoint (corruption fallback)
type Store struct{ root string }

// OpenStore opens (creating if needed) the state directory.
func OpenStore(root string) (*Store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	return &Store{root: root}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.root }

// JobDir returns (creating if needed) a job's directory.
func (st *Store) JobDir(id string) (string, error) {
	dir := filepath.Join(st.root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("jobs: job dir: %w", err)
	}
	return dir, nil
}

// writeJSONAtomic writes v as JSON with full crash durability
// (checkpoint.WriteFile).
func writeJSONAtomic(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode %s: %w", filepath.Base(path), err)
	}
	err = checkpoint.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("jobs: %s: %w", filepath.Base(path), err)
	}
	return nil
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("jobs: decode %s: %w", path, err)
	}
	return nil
}

// SaveSpec persists a job's spec (once, at submission).
func (st *Store) SaveSpec(sp *Spec) error {
	dir, err := st.JobDir(sp.ID)
	if err != nil {
		return err
	}
	return writeJSONAtomic(filepath.Join(dir, "spec.json"), sp)
}

// LoadSpec reads a job's spec; os.IsNotExist distinguishes absence.
func (st *Store) LoadSpec(id string) (*Spec, error) {
	var sp Spec
	if err := readJSON(filepath.Join(st.root, id, "spec.json"), &sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// SaveManifest atomically rewrites a job's manifest.
func (st *Store) SaveManifest(m *Manifest) error {
	m.Version = ManifestVersion
	dir, err := st.JobDir(m.ID)
	if err != nil {
		return err
	}
	return writeJSONAtomic(filepath.Join(dir, "manifest.json"), m)
}

// LoadManifest reads a job's manifest; os.IsNotExist distinguishes a job
// submitted but never transitioned (treated as PENDING by recovery).
func (st *Store) LoadManifest(id string) (*Manifest, error) {
	var m Manifest
	if err := readJSON(filepath.Join(st.root, id, "manifest.json"), &m); err != nil {
		return nil, err
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("jobs: manifest %s has version %d, want %d", id, m.Version, ManifestVersion)
	}
	if !m.State.valid() {
		return nil, fmt.Errorf("jobs: manifest %s has unknown state %q", id, m.State)
	}
	return &m, nil
}

// List returns the IDs of every job with a durable spec, sorted.
func (st *Store) List() ([]string, error) {
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(st.root, e.Name(), "spec.json")); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// CheckpointPath returns a job's checkpoint file path.
func (st *Store) CheckpointPath(id string) string {
	return filepath.Join(st.root, id, "ckpt")
}

// RotateCheckpoint moves ckpt to ckpt.prev (durably) ahead of a new Save,
// so a checkpoint that later fails its CRC has an intact predecessor to
// fall back to. A missing ckpt is a no-op (first checkpoint of the job).
func (st *Store) RotateCheckpoint(id string) error {
	ckpt := st.CheckpointPath(id)
	if _, err := os.Stat(ckpt); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("jobs: %w", err)
	}
	if err := os.Rename(ckpt, ckpt+".prev"); err != nil {
		return fmt.Errorf("jobs: rotate checkpoint: %w", err)
	}
	return checkpoint.SyncDir(filepath.Dir(ckpt))
}

// LoadCheckpoint reads a job's latest intact checkpoint: ckpt first, and on
// checkpoint.ErrCorrupt (bit flip, truncation, torn write) ckpt.prev — the
// previous completed round, still bit-identically resumable. Returns
// os.IsNotExist-errors when the job has no checkpoint at all.
func (st *Store) LoadCheckpoint(id string) (*checkpoint.State, error) {
	ckpt := st.CheckpointPath(id)
	s, err := checkpoint.Load(ckpt)
	if err == nil {
		return s, nil
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) && !os.IsNotExist(err) {
		return nil, err
	}
	corrupt := errors.Is(err, checkpoint.ErrCorrupt)
	s, perr := checkpoint.Load(ckpt + ".prev")
	if perr == nil {
		return s, nil
	}
	if corrupt && os.IsNotExist(perr) {
		// The only copy is damaged: surface the corruption, not absence.
		return nil, err
	}
	return nil, perr
}

// epochPath is the manager incarnation counter file.
func (st *Store) epochPath() string { return filepath.Join(st.root, "epoch") }

// BumpEpoch durably increments and returns the manager incarnation
// counter. Every Open bumps it, so each coordinator incarnation — and the
// worker leases it hands out — is fenced from its predecessors' (see
// transport.NewLeasedCoordinatorOn).
func (st *Store) BumpEpoch() (int64, error) {
	var cur struct {
		Epoch int64 `json:"epoch"`
	}
	if err := readJSON(st.epochPath(), &cur); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	cur.Epoch++
	if err := writeJSONAtomic(st.epochPath(), &cur); err != nil {
		return 0, err
	}
	return cur.Epoch, nil
}
