package jobs

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifestLoad feeds arbitrary bytes to Store.LoadManifest as a job's
// manifest.json. Recovery reads the file back from disk after a crash, so
// the invariant is total: any content either loads or errors, never
// panics, and a manifest that loads carries ManifestVersion and a valid
// state. `go test` replays the seeds; `make fuzz` explores from there.
func FuzzManifestLoad(f *testing.F) {
	for _, seed := range []string{
		`{"version":1,"id":"j","state":"DONE","epoch":2,"round":9,"history":[{"from":"PENDING","to":"RUNNING","epoch":1,"round":0}]}`,
		`{"version":1,"state":"RUNNING","error":"boom"}`,
		`{"version":2,"state":"DONE"}`,
		`{"version":1,"state":"LOST"}`,
		`{"version":1}`,
		`{"version":1,"state":"DONE","round":"nine"}`,
		`{"version":1,"state":"DONE"`,
		`null`,
		"\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	dir, err := st.JobDir("job")
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	f.Fuzz(func(t *testing.T, content []byte) {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := st.LoadManifest("job")
		if err != nil {
			return
		}
		if m.Version != ManifestVersion || !m.State.valid() {
			t.Fatalf("loaded manifest %+v: version %d (want %d), state %q", m, m.Version, ManifestVersion, m.State)
		}
	})
}
