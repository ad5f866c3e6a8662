// Command benchpair measures a change against a base revision on the
// repository's benchmark in alternated pairs, the comparison every
// performance claim needs: it checks the base revision out beside the
// working tree, builds both trees' bench/run.sh binaries, and runs N pairs
// of untraced leaf runs (-workload W -seed S -trace 0, each measuring for
// BENCHMARK.json's run_seconds), base first in even pairs and the change
// first in odd ones, so drift of the host over the session falls on both
// sides alike. For every end-to-end metric of BENCHMARK.json it then
// prints the per-pair values, the base's median [interquartile range], the
// change's median, the change in per cent, the pairs the change won, and
// whether the gap between the medians exceeds the base's interquartile
// range.
//
//	go run ./cmd/benchpair -workload convex100 -pairs 10
//	go run ./cmd/benchpair -base HEAD~1 -workload jobs3 -seed 7 -pairs 6
//	go run ./cmd/benchpair -base-dir ../parent -workload cnn10
//
// The base tree is a `git worktree add --detach` of -base (default: the
// merge-base of HEAD and main) in a temporary directory, removed at the
// end; -base-dir names an existing checkout instead. Nothing is fetched,
// and nothing is written under bench/: each tree's build output stays in
// its own .bench_build/.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// leafResult is the last line a leaf run prints.
type leafResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "base revision (default: git merge-base HEAD main)")
	baseDir := flag.String("base-dir", "", "an existing checkout of the base to use instead of a worktree")
	workload := flag.String("workload", "convex100", "workload of BENCHMARK.json")
	seed := flag.Int64("seed", 7, "seed of the generated inputs")
	pairs := flag.Int("pairs", 10, "alternated pairs of runs")
	flag.Parse()
	if err := run(os.Stdout, *base, *baseDir, *workload, *seed, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, base, baseDir, workload string, seed int64, pairs int) error {
	if pairs < 1 {
		return fmt.Errorf("-pairs must be positive")
	}
	head, err := filepath.Abs(".")
	if err != nil {
		return err
	}
	spec, err := readSpec(filepath.Join(head, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	defs := spec.EndToEnd
	if baseDir == "" {
		if base == "" {
			if base, err = git(head, "merge-base", "HEAD", "main"); err != nil {
				return err
			}
		}
		tmp, err := os.MkdirTemp("", "benchpair-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		baseDir = filepath.Join(tmp, "base")
		if _, err := git(head, "worktree", "add", "--detach", baseDir, base); err != nil {
			return err
		}
		defer git(head, "worktree", "remove", "--force", baseDir)
	}
	trees := [2]string{baseDir, head}
	for _, t := range trees {
		fmt.Fprintf(w, "building %s\n", t)
		// -h makes the freshly built binary print its usage and exit 0.
		if out, err := command(t, "bash", "bench/run.sh", "-h").CombinedOutput(); err != nil {
			return fmt.Errorf("build in %s: %v\n%s", t, err, out)
		}
	}
	var vals [2][][]float64 // [tree][metric][pair]
	for s := range vals {
		vals[s] = make([][]float64, len(defs))
	}
	for p := 0; p < pairs; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, s := range order {
			res, err := leaf(trees[s], workload, seed, spec.RunSeconds)
			if err != nil {
				return err
			}
			for i, d := range defs {
				vals[s][i] = append(vals[s][i], res.Metrics[d.Name].Value)
			}
		}
		fmt.Fprintf(w, "pair %d/%d done\n", p+1, pairs)
	}
	fmt.Fprintf(w, "\n%s seed %d, %d pairs; base %s, change %s\n", workload, seed, pairs, baseDir, head)
	for i, d := range defs {
		printRow(w, d, summarize(d.Better, vals[0][i], vals[1][i]), vals[0][i], vals[1][i])
	}
	return nil
}

// benchSpec is what benchpair reads of a BENCHMARK.json: how long one run
// measures and the end-to-end metrics.
type benchSpec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %v", path, err)
	}
	if spec.RunSeconds < 1 {
		return spec, fmt.Errorf("%s: run_seconds %d, want at least 1", path, spec.RunSeconds)
	}
	return spec, nil
}

func git(dir string, args ...string) (string, error) {
	out, err := command(dir, "git", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}

func command(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	return cmd
}

// leaf runs one untraced leaf run of the binary bench/run.sh built in tree,
// from the tree's root as run.sh does, for the benchmark's run_seconds,
// and parses its last line. A run whose checks fail is an error: its
// numbers measure a wrong program.
func leaf(tree, workload string, seed int64, seconds int) (leafResult, error) {
	var res leafResult
	cmd := command(tree, filepath.Join(tree, ".bench_build", "fedbench"),
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: leaf run: %v\n%s", tree, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: leaf result: %v", tree, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: leaf run reported correct: false", tree)
	}
	return res, nil
}

// summary is one metric's comparison of the change against the base.
type summary struct {
	BaseMedian, BaseIQR float64
	HeadMedian          float64
	DeltaPct            float64 // (change − base)/base of the medians, in per cent
	Won                 int     // pairs where the change is strictly better
	Pairs               int
	Clear               bool // the medians differ by more than the base's IQR
}

// summarize compares the change's values head against the base's values
// base, pair by pair (base[p] and head[p] ran as pair p); better is
// "lower" or "higher".
func summarize(better string, base, head []float64) summary {
	s := summary{Pairs: len(base)}
	s.BaseMedian = quantile(base, 0.5)
	s.BaseIQR = quantile(base, 0.75) - quantile(base, 0.25)
	s.HeadMedian = quantile(head, 0.5)
	if s.BaseMedian != 0 {
		s.DeltaPct = 100 * (s.HeadMedian - s.BaseMedian) / s.BaseMedian
	}
	for p := range base {
		if (better == "lower" && head[p] < base[p]) || (better == "higher" && head[p] > base[p]) {
			s.Won++
		}
	}
	gap := s.HeadMedian - s.BaseMedian
	s.Clear = gap > s.BaseIQR || -gap > s.BaseIQR
	return s
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks of the sorted values (R's type 7).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func printRow(w io.Writer, d metricDef, s summary, base, head []float64) {
	clear := "no"
	if s.Clear {
		clear = "yes"
	}
	fmt.Fprintf(w, "%-18s base %.6g [IQR %.3g]  change %.6g  Δ %+.1f%%  won %d/%d  gap > IQR: %s (%s is better)\n",
		d.Name, s.BaseMedian, s.BaseIQR, s.HeadMedian, s.DeltaPct, s.Won, s.Pairs, clear, d.Better)
	fmt.Fprintf(w, "  base   %s\n  change %s\n", join(base), join(head))
}

func join(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, " ")
}
