package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/models"
	"fedproxvr/internal/optim"
	"fedproxvr/internal/randx"
)

func fixture(t *testing.T, rounds int) (*engine.Engine, models.Model, *data.Partition) {
	t.Helper()
	rng := randx.New(1)
	p := &data.Partition{Clients: make([]*data.Dataset, 3)}
	x := make([]float64, 3)
	for k := range p.Clients {
		ds := data.New(3, 3, 30)
		for i := 0; i < 30; i++ {
			c := (k + i) % 3
			randx.NormalVec(rng, x, float64(c)*2, 0.5)
			ds.AppendClass(x, c)
		}
		p.Clients[k] = ds
	}
	m := models.NewSoftmax(3, 3)
	cfg := engine.FedProxVR(optim.SARAH, 5, 1, 0.1, 5, 8, rounds)
	cfg.Seed = 2
	r, _, err := engine.NewInProcess(m, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, m, p
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := &State{
		Name:   "test-run",
		Round:  7,
		Seed:   42,
		Global: []float64{1.5, -2.5, 3.5},
		Points: []metrics.Point{{Round: 1, TrainLoss: 2.0}},
	}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "test-run" || back.Round != 7 || back.Seed != 42 {
		t.Fatalf("metadata corrupted: %+v", back)
	}
	for i, v := range st.Global {
		if back.Global[i] != v {
			t.Fatal("model corrupted")
		}
	}
	if len(back.Points) != 1 || back.Points[0].TrainLoss != 2.0 {
		t.Fatal("points corrupted")
	}
}

func TestSaveDurability(t *testing.T) {
	// The parent-directory fsync must not break overwrite-in-place: a
	// second Save over the same path replaces the first atomically and no
	// temp file survives.
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, &State{Name: "a", Round: 1, Global: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, &State{Name: "a", Round: 2, Global: []float64{2}}); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Round != 2 || back.Global[0] != 2 {
		t.Fatalf("second Save did not win: %+v", back)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Fatalf("temp files leaked: %v", entries)
	}
	// A missing parent directory fails up front (CreateTemp), before any
	// rename or dir sync could run against it.
	missing := filepath.Join(dir, "no-such-dir", "run.ckpt")
	if err := Save(missing, &State{Name: "a"}); err == nil {
		t.Fatal("Save into a missing directory should error")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); !os.IsNotExist(err) {
		t.Fatalf("missing file should be IsNotExist, got %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("corrupted file should error")
	}
}

func TestTrainCheckpointsAndCompletes(t *testing.T) {
	r, _, _ := fixture(t, 10)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	series, err := TrainContext(context.Background(), r, path, 3)
	if err != nil {
		t.Fatal(err)
	}
	last, ok := series.Last()
	if !ok || last.Round != 10 {
		t.Fatalf("run incomplete: %+v", last)
	}
	if last.TrainLoss >= series.Points[0].TrainLoss {
		t.Fatal("no progress")
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 10 {
		t.Fatalf("final checkpoint at round %d", st.Round)
	}
}

func TestTrainResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// Phase 1: run 4 of 10 rounds, checkpoint, "crash".
	r1, _, _ := fixture(t, 4)
	if _, err := TrainContext(context.Background(), r1, path, 2); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 4 {
		t.Fatalf("phase 1 checkpoint at %d", st.Round)
	}
	phase1Loss := r1.Evaluator().Loss(r1.Global())

	// Phase 2: new process, 10-round config, resumes at round 5.
	r2, _, _ := fixture(t, 10)
	series, err := TrainContext(context.Background(), r2, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The restored model must match the checkpoint (resume actually used it).
	if loss := r2.Evaluator().Loss(r2.Global()); loss >= phase1Loss {
		t.Fatalf("resumed run did not improve on checkpoint: %v vs %v",
			loss, phase1Loss)
	}
	last, _ := series.Last()
	if last.Round != 10 {
		t.Fatalf("resumed run ended at round %d", last.Round)
	}
	// Series includes phase-1 history.
	if series.Points[0].Round != 0 {
		t.Fatal("restored series lost its prefix")
	}
}

func TestTrainContextCancelThenResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// Cancel after round 4; snapshots land every 2 rounds.
	r1, _, _ := fixture(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	r1.OnRound(func(info engine.RoundInfo) error {
		if info.Round == 4 {
			cancel()
		}
		return nil
	})
	series, err := TrainContext(ctx, r1, path, 2)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if last, _ := series.Last(); last.Round != 4 {
		t.Fatalf("cancelled series ends at %d, want 4", last.Round)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 4 {
		t.Fatalf("snapshot at round %d, want 4", st.Round)
	}

	// A fresh process resumes from the snapshot and completes the run.
	r2, _, _ := fixture(t, 10)
	full, err := TrainContext(context.Background(), r2, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := full.Last()
	if last.Round != 10 {
		t.Fatalf("resumed run ends at %d, want 10", last.Round)
	}
	if full.Points[0].Round != 0 {
		t.Fatal("resumed series lost its prefix")
	}
	if last.TrainLoss >= full.Points[0].TrainLoss {
		t.Fatal("no progress across cancel/resume")
	}
}

func TestTrainRejectsForeignCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, &State{Name: "other-run", Global: make([]float64, 12)}); err != nil {
		t.Fatal(err)
	}
	r, _, _ := fixture(t, 5)
	if _, err := TrainContext(context.Background(), r, path, 1); err == nil {
		t.Fatal("foreign checkpoint should be rejected")
	}
	// Dimension mismatch also rejected.
	if err := Save(path, &State{Name: r.Config().Name, Seed: r.Config().Seed, Global: make([]float64, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainContext(context.Background(), r, path, 1); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
}

// TestTrainRejectsOtherSeedOrRound: a checkpoint whose name and dimension
// match is still another run's when its seed differs, and no run of this
// configuration can have saved a round outside [0, Rounds]. Either would
// otherwise resume silently — the first as a run of the wrong seed, the
// second into zero rounds with a longer series than the run has.
func TestTrainRejectsOtherSeedOrRound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r, _, _ := fixture(t, 5)
	cfg := r.Config()
	for name, st := range map[string]State{
		"other seed":     {Name: cfg.Name, Seed: cfg.Seed + 1, Round: 2},
		"round past end": {Name: cfg.Name, Seed: cfg.Seed, Round: cfg.Rounds + 1},
		"negative round": {Name: cfg.Name, Seed: cfg.Seed, Round: -1},
	} {
		st.Global = make([]float64, len(r.Global()))
		if err := Save(path, &st); err != nil {
			t.Fatal(err)
		}
		if _, err := TrainContext(context.Background(), r, path, 1); err == nil {
			t.Errorf("%s: checkpoint %+v resumed", name, st)
		}
	}
	// The same run's checkpoint at its last round resumes into no rounds.
	done := State{Name: cfg.Name, Seed: cfg.Seed, Round: cfg.Rounds, Global: make([]float64, len(r.Global()))}
	if err := Save(path, &done); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainContext(context.Background(), r, path, 1); err != nil {
		t.Fatalf("finished run's own checkpoint rejected: %v", err)
	}
}

func TestLoadRejectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := &State{Name: "x", Round: 3, Global: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte position in turn: wherever the flip lands
	// — gob header, a float's mantissa (which gob would happily decode to a
	// wrong model), the version field, or the trailer itself — Load must
	// refuse with ErrCorrupt rather than resume from silently wrong state.
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: want ErrCorrupt, got %v", pos, err)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := &State{Name: "x", Round: 3, Global: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{len(data) - 1, len(data) - 4, len(data) / 2, 3, 0} {
		if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: want ErrCorrupt, got %v", keep, err)
		}
	}
}

func TestLoadRejectsLegacyV1(t *testing.T) {
	// A pre-trailer checkpoint: plain gob, Version 1, no CRC. There is one
	// on-disk format; a file without a trailer is corrupt, never restored.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var buf bytes.Buffer
	if err := encode(&buf, &State{Version: 1, Name: "legacy", Round: 5, Global: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err := Load(path); !errors.Is(err, ErrCorrupt) || back != nil {
		t.Fatalf("legacy v1 checkpoint: want ErrCorrupt and no state, got %+v, %v", back, err)
	}
}

func TestResumeBitIdentical(t *testing.T) {
	// The restart = never-died claim, at the Train level: 5 rounds +
	// crash + resume to 10 must produce the exact bytes of an
	// uninterrupted 10-round run (round-keyed RNG re-seeding means no
	// stream history is lost with the process).
	dir := t.TempDir()
	r0, _, _ := fixture(t, 10)
	if _, err := TrainContext(context.Background(), r0, filepath.Join(dir, "straight.ckpt"), 10); err != nil {
		t.Fatal(err)
	}

	interrupted := filepath.Join(dir, "interrupted.ckpt")
	r1, _, _ := fixture(t, 5)
	if _, err := TrainContext(context.Background(), r1, interrupted, 1); err != nil {
		t.Fatal(err)
	}
	r2, _, _ := fixture(t, 10)
	if _, err := TrainContext(context.Background(), r2, interrupted, 1); err != nil {
		t.Fatal(err)
	}

	want, got := r0.Global(), r2.Global()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resumed model differs from uninterrupted run at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestVersionGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := &State{Name: "x"}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	// Tamper: re-encode with a wrong version via direct struct write. The
	// trailer is valid, so this is a version error, not corruption.
	st.Version = 99
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := encode(f, st); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(path); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong version should be rejected as a version error, got %v", err)
	}
}
