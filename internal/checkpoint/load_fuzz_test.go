package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fedproxvr/internal/metrics"
)

// FuzzCheckpointLoad feeds Load checkpoint files whose payload is arbitrary
// but whose CRC32 trailer is valid, so the bytes reach the gob decoder
// instead of being turned away by the integrity check. A checkpoint is read
// back from disk after a crash, so the invariant is total: Load returns a
// state or an error, never panics, and never returns both or neither.
//
// The seed corpus holds a real Save payload, one of the wrong version, and
// the inputs of TestLoadErrors. `go test` replays it on every plain run;
// `make fuzz` explores from there.
func FuzzCheckpointLoad(f *testing.F) {
	var saved bytes.Buffer
	if err := encode(&saved, &State{Version: Version, Name: "seed", Round: 4, Seed: 9,
		Global: []float64{1.5, -2, 0}, Points: []metrics.Point{{Round: 4, TrainLoss: 0.7}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes()[:saved.Len()-4])
	var old bytes.Buffer
	if err := encode(&old, &State{Version: 1, Name: "legacy"}); err != nil {
		f.Fatal(err)
	}
	f.Add(old.Bytes()[:old.Len()-4])
	f.Add([]byte("not a gob"))
	f.Add([]byte{})

	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(path)
		if (st == nil) == (err == nil) {
			t.Fatalf("Load returned state %v and error %v", st, err)
		}
		if err == nil && st.Version != Version {
			t.Fatalf("Load accepted version %d", st.Version)
		}
	})
}
