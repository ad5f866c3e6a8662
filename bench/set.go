package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setResult is one full set: every workload's untraced and traced run.
// -out writes it as a file, -append as one line of a JSONL history.
type setResult struct {
	Commit    string                 `json:"commit"`
	At        string                 `json:"at"`
	Seed      int64                  `json:"seed"`
	Scale     string                 `json:"scale"`
	NProc     int                    `json:"nproc"`
	GoVersion string                 `json:"go"`
	Workloads map[string]workloadRun `json:"workloads"`
}

type workloadRun struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// runSet runs the named workload (or all) twice each — untraced, then
// traced — every run in a child process of its own, so set-up time, peak
// RSS and GC state are one workload's alone.
func runSet(workload string, seed int64, seconds float64, scale, out, appendTo string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := setResult{
		Commit: gitHead(), At: time.Now().UTC().Format(time.RFC3339), Seed: seed, Scale: scale,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Workloads: map[string]workloadRun{},
	}
	ok := true
	for _, w := range workloadDefs {
		if workload != "all" && workload != w.Name {
			continue
		}
		var run workloadRun
		run.Correct = true
		for _, traced := range []string{"0", "1"} {
			fmt.Printf("== %s (trace %s)\n", w.Name, traced)
			res, err := runChild(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", scale, "-trace", traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %s: %v\n", w.Name, traced, err)
				ok = false
			}
			run.Correct = run.Correct && res.Correct
			if traced == "0" {
				run.EndToEnd, run.Attempted, run.Failed = res.Metrics, res.Attempted, res.Failed
			} else {
				run.PerLayer = res.Metrics
			}
		}
		set.Workloads[w.Name] = run
	}
	if len(set.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if appendTo != "" {
		b, err := json.Marshal(set)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(appendTo, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("at least one run failed")
	}
	return nil
}

// runChild runs one leaf, passing its output through, and parses the
// result object off its last line.
func runChild(self string, args ...string) (result, error) {
	var res result
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && runErr == nil {
		return res, fmt.Errorf("no result on the last line: %w", err)
	}
	return res, runErr
}

func gitHead() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func readSet(path string) (setResult, error) {
	var s setResult
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareSets prints one row per (workload, end-to-end metric) with both
// values, how much B is worse than A as a share of A, and the metric's
// bound; it returns an error if any row is over its bound. A is the
// parent (or the first of two sets of the same code), B the change.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	over := 0
	for _, wd := range workloadDefs {
		ra, okA := a.Workloads[wd.Name]
		rb, okB := b.Workloads[wd.Name]
		if !okA || !okB {
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			mark := ""
			if !(worse <= d.Bound) { // also catches NaN from a zero base
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wd.Name, d.Name, va, vb, 100*worse, 100*d.Bound, mark)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-10s a run failed its correctness checks\n", wd.Name)
			over++
		}
	}
	if over > 0 {
		return fmt.Errorf("%d row(s) over their bound", over)
	}
	return nil
}
