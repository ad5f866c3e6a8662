package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// badSpecBodies are submissions whose numbers are out of range for the
// shared run builders (clisetup.Config, clisetup.Task): a panic there
// would drop the connection instead of answering 400.
var badSpecBodies = []string{
	`{"rounds":1,"beta":-1}`,
	`{"rounds":1,"dataset":"digits","samples":-5}`,
}

// TestSubmitRejectsOutOfRangeNumbers: each bad body gets a 400 from the
// HTTP API, and the same spec handed to Submit directly is an error.
func TestSubmitRejectsOutOfRangeNumbers(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	defer m.Stop()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for _, body := range badSpecBodies {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: %d, want 400", body, resp.StatusCode)
		}
		var sp Spec
		if err := json.Unmarshal([]byte(body), &sp); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(sp); err == nil {
			t.Fatalf("Submit(%s) accepted the spec", body)
		}
	}
}

// FuzzSpecSubmit feeds arbitrary bytes through what a POST /jobs does
// before it touches the manager's state: the strict decode, the defaults
// and Validate, which builds the whole run. Any input must be accepted or
// rejected with an error — never panic.
func FuzzSpecSubmit(f *testing.F) {
	for _, body := range badSpecBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"id":"h1","rounds":5000,"devices":3,"tau":2,"batch":8}`))
	f.Add([]byte(`{"rounds":3,"dataset":"fashion","model":"cnn","samples":2,"alg":"svrg"}`))
	f.Add([]byte(`{"rounds":2,"tau":-1,"batch":0,"client_fraction":1.5,"dropout_prob":-0.5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var sp Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&sp) != nil {
			return
		}
		sp = sp.withDefaults()
		// Large fleets and image sets only make generation slow.
		if sp.Devices > 64 || sp.Samples > 64 {
			return
		}
		if sp.ID == "" {
			sp.ID = "fuzz"
		}
		_ = sp.Validate()
	})
}
