// Command bench is the repository's benchmark: five named workloads, each
// measured end to end (untraced) and layer by layer (traced), with the
// outputs checked in the same command. BENCHMARK.json at the repository
// root describes it; README.md in this directory explains it.
//
//	go run . -workload all -out A.json   # every workload, both runs each
//	go run . -compare A.json B.json      # two sets against the bounds
//	go run . -workload tcp8_f64 -seed 7 -seconds 10 -trace 0   # one leaf run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 2020, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long one run measures: episodes repeat while another fits")
	traceFlag := flag.String("trace", "", "0: one untraced run printing the end-to-end metrics; 1: one traced run printing the per-layer metrics; unset: both, each in a child process")
	scale := flag.String("scale", "full", "full or tiny (smoke test)")
	out := flag.String("out", "", "write the set's results to this JSON file")
	appendTo := flag.String("append", "", "append the set's results as one JSONL record keyed by the git commit")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two files")
		} else {
			err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *traceFlag == "":
		err = runSet(*workload, *seed, *seconds, *scale, *out, *appendTo)
	default:
		err = runLeaf(*workload, *seed, *seconds, *traceFlag == "1", *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory (the driver's wrapper) or its parent (go run/test in bench/).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// runLeaf is one run of one workload in this process. It prints every
// metric by name with its unit, then the result object as the last line.
func runLeaf(name string, seed int64, seconds float64, traced bool, scale string) error {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	res, verr, err := leaf(name, seed, seconds, traced, scale)
	if err != nil {
		return err
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if verr != nil {
		return fmt.Errorf("%s: check failed: %w", name, verr)
	}
	return nil
}

// leaf measures one workload once, untraced or traced. verr is a failed
// correctness check (the result is still complete); err is a run that could
// not be measured at all.
func leaf(name string, seed int64, seconds float64, traced bool, scale string) (res result, verr, err error) {
	sz, ok := sizings[scale][name]
	if !ok {
		return res, nil, fmt.Errorf("unknown workload %q at scale %q", name, scale)
	}
	if traced && sz.traced > 0 {
		// One longer episode: the layer medians need the rounds, and the
		// traced run reports no convergence number.
		sz.rounds = sz.traced
	}
	root, err := repoRoot()
	if err != nil {
		return res, nil, err
	}
	// Scratch state (job state dirs, checkpoint probes) stays inside the checkout.
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return res, nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, name+"-")
	if err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(tmp)

	if traced {
		res, verr, err = leafTraced(name, sz, seed, tmp, root)
	} else {
		res, verr, err = leafUntraced(name, sz, seed, seconds, tmp)
	}
	res.Correct = err == nil && verr == nil
	return res, verr, err
}

// build generates the workload from the seed and makes it ready to run;
// the time it takes is one setup_s sample.
func build(name string, sz sizing, seed int64, tmp string, t *tracing) (system, float64, error) {
	t0 := time.Now()
	var sys system
	if name == "jobs3" {
		sys = newJobsSystem(sz, jobSpecs(sz, seed), tmp)
	} else {
		es, err := newEngineSystem(name, sz, seed)
		if err != nil {
			return nil, 0, err
		}
		sys = es
	}
	if err := sys.prepare(t); err != nil {
		sys.close()
		return nil, 0, err
	}
	return sys, time.Since(t0).Seconds(), nil
}

// minEpisodes is the least number of episodes in an untraced run.
const minEpisodes = 3

// setupRuns is the least number of times a run sets the workload up
// (every episode sets up once); setup_s is the median.
const setupRuns = 5

func leafUntraced(name string, sz sizing, seed int64, seconds float64, tmp string) (res result, verr, err error) {
	var setups []float64
	var eps []*episode
	var rss float64
	began := time.Now()
	for more := true; more; {
		sys, setupS, err := build(name, sz, seed, tmp, nil)
		if err != nil {
			return res, nil, err
		}
		setups = append(setups, setupS)
		ep, err := sys.episode()
		if err != nil {
			sys.close()
			return res, nil, err
		}
		eps = append(eps, ep)
		// At least minEpisodes, so that one slow spell of the host cannot
		// move the medians; beyond that only if another fits, so a faster
		// program runs more episodes, never a longer run.
		elapsed := time.Since(began).Seconds()
		more = len(eps) < minEpisodes || elapsed+elapsed/float64(len(eps)) <= seconds
		if !more {
			// Before the checks' reference runs and the extra set-ups below,
			// so the peak is the workload's own.
			rss = peakRSSMB()
			verr = sys.verify(ep)
		} else if verr == nil {
			verr = verifyCommon(sz, ep)
		}
		sys.close()
		runtime.GC() // so peak RSS is one episode's, not the garbage of several
	}
	if verr == nil {
		verr = sameOutputs(eps)
	}
	for len(setups) < setupRuns {
		sys, setupS, err := build(name, sz, seed, tmp, nil)
		if err != nil {
			return res, nil, err
		}
		sys.close()
		setups = append(setups, setupS)
	}
	raw, attempted, failed := endToEnd(eps, setups, rss)
	fmt.Fprintf(os.Stderr, "%s: %d episode(s), %d timed rounds, %d set-ups\n", name, len(eps), len(eps)*eps[0].timedRounds, len(setups))
	return result{Attempted: attempted, Failed: failed, Metrics: fill(endToEndDefs, raw)}, verr, nil
}

// sameOutputs holds a run's episodes to the determinism the repo promises:
// the same seed trains the same model, bit for bit, every time.
func sameOutputs(eps []*episode) error {
	for _, ep := range eps[1:] {
		if ep.finalLoss != eps[0].finalLoss || ep.toTargetN != eps[0].toTargetN {
			return fmt.Errorf("episodes of one seed disagree: final loss %v vs %v, rounds to target %d vs %d",
				ep.finalLoss, eps[0].finalLoss, ep.toTargetN, eps[0].toTargetN)
		}
	}
	return nil
}

// leafTraced runs one episode with the bench's instrumentation on and
// reduces it, plus a few stand-alone probes, to the per-layer metrics.
func leafTraced(name string, sz sizing, seed int64, tmp, root string) (res result, verr, err error) {
	raw := map[string]float64{}
	var t *tracing
	if name != "jobs3" { // the manager owns its engines: nothing to attach to
		t = newTracing(name, sz.warmup)
	}
	heap := startHeapSampler()
	sys, _, err := build(name, sz, seed, tmp, t)
	if err != nil {
		heap.finish(raw)
		return res, nil, err
	}
	defer sys.close()
	ep, err := sys.episode()
	heap.finish(raw)
	if err != nil {
		return res, nil, err
	}
	verr = sys.verify(ep)

	if err := probeCheckpoint(raw, tmp, ep.final[0], sz.rounds); err != nil {
		return res, nil, err
	}
	probeTelemetry(raw, sz.devices, ep.finalLoss)
	raw["engine.failed_share"] = float64(ep.failed) / float64(max(ep.attempted, 1))
	switch s := sys.(type) {
	case *engineSystem:
		err = s.layers(raw, ep, root)
	case *jobsSystem:
		s.layers(raw, raw["checkpoint.save_ms"])
	}
	if err != nil {
		return res, nil, err
	}
	return result{Attempted: ep.attempted, Failed: ep.failed, Metrics: fill(perLayerDefs, raw)}, verr, nil
}
