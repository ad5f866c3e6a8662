// Package checkpoint persists and resumes federated training runs: the
// global model, the round counter and the metric history are written
// atomically (temp file + rename + parent-dir fsync) in gob format with a
// CRC32 integrity trailer, so a long experiment survives process restarts
// — including a SIGKILL mid-write.
//
// Resume is bit-identical: no RNG stream needs serializing because every
// stream (server and per-device) is re-keyed at each round boundary from a
// pure (seed, stream, round) hash — see randx.RoundSeed and
// engine.Device.BeginRound — so a run resumed at round t draws exactly
// what the uninterrupted run would have drawn from round t+1 on.
package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
)

// Version guards the on-disk format: a gob payload followed by its
// little-endian IEEE CRC32 as a 4-byte trailer. A file without a valid
// trailer — the trailer-less version 1 included — is ErrCorrupt.
const Version = 2

// ErrCorrupt marks a checkpoint file that exists but fails integrity
// verification — truncated, bit-flipped, or torn. Callers holding a
// previous-round checkpoint (internal/jobs rotates ckpt → ckpt.prev)
// should fall back to it with errors.Is(err, ErrCorrupt) instead of
// treating the job as unrecoverable.
var ErrCorrupt = errors.New("checkpoint: corrupt")

// State is everything needed to resume a run.
type State struct {
	Version int
	Name    string
	Round   int
	Seed    int64
	Global  []float64
	Points  []metrics.Point
}

// Save writes the state atomically with WriteFile.
func Save(path string, s *State) error {
	s.Version = Version
	return WriteFile(path, func(w io.Writer) error { return encode(w, s) })
}

// WriteFile is the one durable write sequence, which Save and the job
// store's manifests share: fill writes the content into a temp file in
// path's directory, the temp file is fsync'd, closed and renamed over
// path, and the directory is fsync'd after the rename so the new entry
// itself is durable — without it a crash between rename and the next
// journal commit can resurrect the old file (or none at all). At every
// crash point path holds either its old content or all of the new. fill's
// error is returned as is; the others name the step that failed.
func WriteFile(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	// A constant pattern: one built from path would allocate on every save.
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-renamed entry survives a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("checkpoint: close dir: %w", err)
	}
	return nil
}

// encode writes the state as stored — gob payload, then the CRC32 trailer —
// without normalizing Version (tests build wrong-version files with it).
// The CRC is computed over the exact bytes written: the payload streams
// through the hash on its way to w, and the trailer makes any later
// truncation or bit flip detectable at Load.
func encode(w io.Writer, s *State) error {
	h := crc32.NewIEEE()
	if err := gob.NewEncoder(io.MultiWriter(w, h)).Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("checkpoint: trailer: %w", err)
	}
	return nil
}

// Load reads a state; os.IsNotExist(err) distinguishes a fresh start and
// errors.Is(err, ErrCorrupt) a damaged file: the payload is decoded only
// once its CRC32 trailer has verified, so a truncated, bit-flipped or
// trailer-less file is never half-restored.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := len(data) - 4
	if n <= 0 || crc32.ChecksumIEEE(data[:n]) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, fmt.Errorf("%w: %s: no valid CRC32 trailer", ErrCorrupt, path)
	}
	var s State
	if err := gob.NewDecoder(bytes.NewReader(data[:n])).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %s: verified payload undecodable: %v", ErrCorrupt, path, err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has version %d, want %d", path, s.Version, Version)
	}
	return &s, nil
}

// Restore resumes eng from st, refusing a checkpoint another run wrote: the
// run name, the seed and the model dimension must match eng's
// configuration, and st.Round must lie in [0, Rounds]. The metric series
// recorded before st was saved becomes the engine's history, which the
// resumed run extends.
func Restore(eng *engine.Engine, st *State) error {
	cfg := eng.Config()
	switch {
	case st.Name != cfg.Name:
		return fmt.Errorf("checkpoint: holds run %q, not %q", st.Name, cfg.Name)
	case st.Seed != cfg.Seed:
		return fmt.Errorf("checkpoint: run %q was seeded %d, not %d", st.Name, st.Seed, cfg.Seed)
	case len(st.Global) != len(eng.Global()):
		return fmt.Errorf("checkpoint: model dim %d, want %d", len(st.Global), len(eng.Global()))
	case st.Round < 0 || st.Round > cfg.Rounds:
		return fmt.Errorf("checkpoint: round %d outside the run's [0, %d]", st.Round, cfg.Rounds)
	}
	eng.SetGlobal(st.Global)
	eng.Resume(st.Round, st.Points)
	return nil
}

// TrainContext runs the remaining rounds of eng's configuration,
// checkpointing to path every `every` rounds (and at the end). If path
// already holds a checkpoint of the same run (see Restore), training
// resumes from it: the global model is restored and only the remaining
// rounds execute. It snapshots through the engine's per-round hook, so a
// run interrupted by ctx (or by a crash after the last snapshot) resumes
// from path on the next call. It returns the full metric series (restored
// prefix + new points); on cancellation, the series so far alongside
// ctx.Err().
func TrainContext(ctx context.Context, eng *engine.Engine, path string, every int) (*metrics.Series, error) {
	cfg := eng.Config()
	if every < 1 {
		every = 1
	}
	if st, err := Load(path); err == nil {
		if err := Restore(eng, st); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	// Save encodes before it returns, so the state may alias the engine's
	// model and history.
	unhook := eng.OnRound(func(info engine.RoundInfo) error {
		if info.Round%every != 0 && info.Round != cfg.Rounds {
			return nil
		}
		return Save(path, &State{
			Name:   cfg.Name,
			Round:  info.Round,
			Seed:   cfg.Seed,
			Global: info.Global,
			Points: info.Series.Points,
		})
	})
	defer unhook()
	return eng.Run(ctx)
}
