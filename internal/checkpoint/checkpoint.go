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

// Save writes the state atomically: a temp file in the same directory is
// fsync'd and renamed over the target, and the parent directory is fsync'd
// after the rename so the new directory entry itself is durable — without
// it a crash between rename and the next journal commit can resurrect the
// old checkpoint (or none at all).
func Save(path string, s *State) error {
	s.Version = Version
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if err := encode(tmp, s); err != nil {
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
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
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

// Train runs the remaining rounds of eng's configuration, checkpointing to
// path every `every` rounds (and at the end). If path already holds a
// checkpoint for the same run name, training resumes from it: the global
// model is restored and only the remaining rounds execute. It returns the
// full metric series (restored prefix + new points).
func Train(eng *engine.Engine, path string, every int) (*metrics.Series, error) {
	return TrainContext(context.Background(), eng, path, every)
}

// TrainContext is Train with cancellation: it snapshots through the
// engine's per-round hook, so a run interrupted by ctx (or by a crash
// after the last snapshot) resumes from path on the next call. On
// cancellation it returns the series so far alongside ctx.Err().
func TrainContext(ctx context.Context, eng *engine.Engine, path string, every int) (*metrics.Series, error) {
	cfg := eng.Config()
	if every < 1 {
		every = 1
	}
	var prefix []metrics.Point

	if st, err := Load(path); err == nil {
		if st.Name != cfg.Name {
			return nil, fmt.Errorf("checkpoint: %s holds run %q, not %q", path, st.Name, cfg.Name)
		}
		if len(st.Global) != len(eng.Global()) {
			return nil, fmt.Errorf("checkpoint: model dim %d, want %d", len(st.Global), len(eng.Global()))
		}
		eng.SetGlobal(st.Global)
		eng.SetRound(st.Round)
		prefix = st.Points
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	unhook := eng.OnRound(func(info engine.RoundInfo) error {
		if info.Round%every != 0 && info.Round != cfg.Rounds {
			return nil
		}
		points := make([]metrics.Point, 0, len(prefix)+len(info.Series.Points))
		points = append(append(points, prefix...), info.Series.Points...)
		return Save(path, &State{
			Name:   cfg.Name,
			Round:  info.Round,
			Seed:   cfg.Seed,
			Global: append([]float64(nil), info.Global...),
			Points: points,
		})
	})
	defer unhook()

	series, err := eng.Run(ctx)
	full := &metrics.Series{Name: cfg.Name}
	full.Points = append(append(full.Points, prefix...), series.Points...)
	if err != nil {
		return full, err
	}
	return full, nil
}
