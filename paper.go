package fedproxvr

import (
	"fmt"

	"fedproxvr/internal/async"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/search"
	"fedproxvr/internal/simnet"
	"fedproxvr/internal/theory"
)

// Scale sizes a reproduction run. PaperScale matches the paper's setup
// (except round counts, which default to 300 of the paper's ~1000 — the
// curves' ordering is established well before that); QuickScale shrinks
// everything so `go test -bench` finishes in minutes.
type Scale struct {
	Devices         int // devices for convex experiments (paper: 100)
	CNNDevices      int // devices for the CNN experiment (paper: 10)
	Rounds          int // global iterations T for figures
	SamplesPerClass int // image corpus size per class
	Trials          int // random-search trials per algorithm (tables)
	TableRounds     int // T for each table trial
	CNNWidthDiv     int // CNN channel divisor (1 = paper's 32/64)
	CNNRounds       int // T for the CNN figure
	Parallel        bool
	Seed            int64
}

// PaperScale returns the full-fidelity configuration.
func PaperScale() Scale {
	return Scale{
		Devices:         100,
		CNNDevices:      10,
		Rounds:          300,
		SamplesPerClass: 600,
		Trials:          10,
		TableRounds:     200,
		CNNWidthDiv:     1,
		CNNRounds:       100,
		Parallel:        true,
		Seed:            2020,
	}
}

// QuickScale returns a minutes-scale configuration preserving every
// experiment's shape.
func QuickScale() Scale {
	return Scale{
		Devices:         20,
		CNNDevices:      5,
		Rounds:          40,
		SamplesPerClass: 120,
		Trials:          3,
		TableRounds:     25,
		CNNWidthDiv:     8,
		CNNRounds:       15,
		Parallel:        true,
		Seed:            2020,
	}
}

// Fig1Row is one (σ̄², γ) point of Figure 1.
type Fig1Row struct {
	SigmaBar2 float64
	Optimum
}

// RunFig1 regenerates Figure 1: the effect of the weight factor
// γ = d_cmp/d_com on the optimal (β, μ, θ, Θ, τ) under the paper's
// constants L=1, λ=0.5, for each heterogeneity level in sigma2s.
func RunFig1(sigma2s, gammas []float64) []Fig1Row {
	rows := make([]Fig1Row, 0, len(sigma2s)*len(gammas))
	for _, s2 := range sigma2s {
		p := theory.Problem{L: 1, Lambda: 0.5, SigmaBar2: s2}
		for _, opt := range p.SweepGamma(gammas) {
			rows = append(rows, Fig1Row{SigmaBar2: s2, Optimum: opt})
		}
	}
	return rows
}

// Fig1Defaults returns the σ̄² levels and γ axis used by our Figure 1
// regeneration.
func Fig1Defaults() (sigma2s, gammas []float64) {
	return []float64{0.5, 1, 2}, theory.LogSpace(1e-4, 1e-1, 13)
}

// FigSetting is one hyperparameter panel of Figures 2–3.
type FigSetting struct {
	Label string
	Beta  float64
	Tau   int
	Batch int
	// AboveBound marks the panel where τ exceeds the Lemma 1 upper bound
	// (the paper shows these curves fluctuating).
	AboveBound bool
}

// Fig2Settings returns the paper's convex-task panels: (β=5, τ=10),
// (β=7, τ=20), and a τ above the Lemma 1 bound; B=32 everywhere.
func Fig2Settings() []FigSetting {
	return []FigSetting{
		{Label: "beta=5 tau=10", Beta: 5, Tau: 10, Batch: 32},
		{Label: "beta=7 tau=20", Beta: 7, Tau: 20, Batch: 32},
		{Label: "beta=7 tau=40 (above bound)", Beta: 7, Tau: 40, Batch: 32, AboveBound: true},
	}
}

// Fig3Settings returns the non-convex panels (B=64 per the paper).
func Fig3Settings() []FigSetting {
	return []FigSetting{
		{Label: "beta=5 tau=10", Beta: 5, Tau: 10, Batch: 64},
		{Label: "beta=7 tau=20", Beta: 7, Tau: 20, Batch: 64},
	}
}

// FigResult is one algorithm's series within one panel.
type FigResult struct {
	Setting FigSetting
	Series  *Series
}

// runPanel runs FedAvg and both FedProxVR variants on one task/setting.
func runPanel(task Task, set FigSetting, mu float64, rounds int, parallel bool, seed int64) ([]FigResult, error) {
	algs := []Config{
		FedAvg(set.Beta, task.L, set.Tau, set.Batch, rounds),
		FedProxVR(SVRG, set.Beta, task.L, mu, set.Tau, set.Batch, rounds),
		FedProxVR(SARAH, set.Beta, task.L, mu, set.Tau, set.Batch, rounds),
	}
	out := make([]FigResult, 0, len(algs))
	for _, cfg := range algs {
		cfg.Name = fmt.Sprintf("%s [%s]", cfg.Name, set.Label)
		cfg.Parallel = parallel
		cfg.Seed = seed
		cfg.EvalEvery = max(1, rounds/50)
		series, _, err := Train(task, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, FigResult{Setting: set, Series: series})
	}
	return out, nil
}

// RunFig2 regenerates Figure 2: FedProxVR vs FedAvg on the convex
// (multinomial logistic regression) Fashion-image task across the β/τ
// panels.
func RunFig2(sc Scale) ([]FigResult, error) {
	task, err := ImageTask(ImageOptions{
		Style:           Fashion,
		Devices:         sc.Devices,
		SamplesPerClass: sc.SamplesPerClass,
		Seed:            sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	var all []FigResult
	for _, set := range Fig2Settings() {
		rs, err := runPanel(task, set, 0.1, sc.Rounds, sc.Parallel, sc.Seed)
		if err != nil {
			return nil, err
		}
		all = append(all, rs...)
	}
	return all, nil
}

// RunFig3 regenerates Figure 3: the non-convex CNN task on digit images.
func RunFig3(sc Scale) ([]FigResult, error) {
	task, err := CNNTask(ImageOptions{
		Style:           Digits,
		Devices:         sc.CNNDevices,
		SamplesPerClass: sc.SamplesPerClass,
		Seed:            sc.Seed,
	}, sc.CNNWidthDiv)
	if err != nil {
		return nil, err
	}
	var all []FigResult
	for _, set := range Fig3Settings() {
		rs, err := runPanel(task, set, 0.01, sc.CNNRounds, sc.Parallel, sc.Seed)
		if err != nil {
			return nil, err
		}
		all = append(all, rs...)
	}
	return all, nil
}

// Fig4Mus returns the proximal penalties swept by our Figure 4
// regeneration (μ=0 is the divergent case; larger μ converges ever more
// slowly).
func Fig4Mus() []float64 { return []float64{0, 20, 50, 150} }

// Fig4Eta is the deliberately aggressive step size of the Figure 4
// experiment. Calibration: at η ≈ 0.6 on Synthetic(1.5, 1.5) the μ=0 run
// fluctuates and stalls (the paper's "diverges"), while μ > 0 stabilizes
// it — at η within the Lemma 1 regime every μ converges and the
// experiment shows nothing.
const Fig4Eta = 0.6

// RunFig4 regenerates Figure 4: the effect of μ on FedProxVR convergence
// on the heterogeneous Synthetic dataset.
func RunFig4(sc Scale) ([]*Series, error) {
	task := SyntheticTask(SyntheticOptions{
		Devices: sc.Devices,
		Alpha:   1.5, Beta: 1.5,
		MinSamples: 37, MaxSamples: 500,
		Seed: sc.Seed,
	})
	beta := 1 / (Fig4Eta * task.L) // η = 1/(βL) = Fig4Eta
	var out []*Series
	for _, mu := range Fig4Mus() {
		cfg := FedProxVR(SVRG, beta, task.L, mu, 50, 16, sc.Rounds)
		cfg.Name = fmt.Sprintf("FedProxVR (SVRG) mu=%g", mu)
		cfg.Parallel = sc.Parallel
		cfg.Seed = sc.Seed
		cfg.EvalEvery = max(1, sc.Rounds/50)
		series, _, err := Train(task, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, series)
	}
	return out, nil
}

// TableResult is the best trial found for one algorithm row.
type TableResult struct {
	Best   search.Trial
	Trials []search.Trial
}

// tableSearch runs the per-algorithm random search of Tables 1–2.
func tableSearch(task Task, sc Scale, cnn bool) ([]TableResult, error) {
	space := search.Space{
		Taus:    []int{10, 20},
		Betas:   []float64{5, 7, 9, 10},
		Mus:     []float64{0.01, 0.1, 0.5},
		Batches: []int{16, 32},
	}
	avgSpace := space
	avgSpace.Mus = []float64{0} // FedAvg has no proximal term
	rounds := sc.TableRounds
	if cnn {
		rounds = sc.CNNRounds
	}
	runs := []struct {
		name  string
		est   Estimator
		space search.Space
	}{
		{"FedAvg", SGD, avgSpace},
		{"FedProxVR (SVRG)", SVRG, space},
		{"FedProxVR (SARAH)", SARAH, space},
	}
	out := make([]TableResult, 0, len(runs))
	for _, r := range runs {
		trials, err := search.Run(task.Model, task.Part, task.Test, r.space, search.Options{
			Estimator: r.est,
			Name:      r.name,
			L:         task.L,
			Rounds:    rounds,
			Trials:    sc.Trials,
			EvalEvery: 5,
			Parallel:  sc.Parallel,
			Seed:      sc.Seed,
		}, task.InitW)
		if err != nil {
			return nil, err
		}
		out = append(out, TableResult{Best: search.Best(trials), Trials: trials})
	}
	return out, nil
}

// RunTable1 regenerates Table 1: best-hyperparameter test accuracies on
// the convex task.
func RunTable1(sc Scale) ([]TableResult, error) {
	task, err := ImageTask(ImageOptions{
		Style:           Fashion,
		Devices:         sc.Devices,
		SamplesPerClass: sc.SamplesPerClass,
		Seed:            sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	return tableSearch(task, sc, false)
}

// RunTable2 regenerates Table 2: best-hyperparameter test accuracies on
// the non-convex CNN task.
func RunTable2(sc Scale) ([]TableResult, error) {
	task, err := CNNTask(ImageOptions{
		Style:           Digits,
		Devices:         sc.CNNDevices,
		SamplesPerClass: sc.SamplesPerClass,
		Seed:            sc.Seed,
	}, sc.CNNWidthDiv)
	if err != nil {
		return nil, err
	}
	return tableSearch(task, sc, true)
}

// TimingRow is one (fleet, τ) measurement of the Section 4.3 validation
// study: the simulated wall-clock time for FedProxVR to reach the target
// training loss under a concrete network/compute fleet.
type TimingRow struct {
	Fleet        string
	Gamma        float64 // fleet γ = d_cmp/d_com
	Tau          int
	Rounds       int     // rounds needed to hit the target (-1: never)
	TimeToTarget float64 // simulated seconds (-1: never reached)
}

// RunTimingStudy empirically validates the paper's Section 4.3 trade-off
// on the simulated network: on a slow network (small γ) large τ minimizes
// time-to-target, on a fast network (large γ) small τ does. This is the
// measured counterpart of Figure 1's numeric optimization.
func RunTimingStudy(sc Scale) ([]TimingRow, error) {
	task := SyntheticTask(SyntheticOptions{
		Devices: sc.Devices, MinSamples: 60, MaxSamples: 300, Seed: sc.Seed,
	})
	target := 1.0 // reachable loss target on this task (from ~2.30 at w=0)

	fleets := []struct {
		name    string
		profile simnet.DeviceProfile
	}{
		// Slow network: d_com = 2 s, d_cmp = 1 ms → γ = 5·10⁻⁴.
		{"slow-net", simnet.DeviceProfile{ComputePerIter: 0.001, Uplink: 1, Downlink: 1}},
		// Fast network: d_com = 2 ms, d_cmp = 1 ms → γ = 0.5.
		{"fast-net", simnet.DeviceProfile{ComputePerIter: 0.001, Uplink: 0.001, Downlink: 0.001}},
	}
	taus := []int{2, 10, 50}
	var rows []TimingRow
	for _, f := range fleets {
		fleet := simnet.NewUniformFleet(len(task.Part.Clients), f.profile, sc.Seed)
		for _, tau := range taus {
			cfg := FedProxVR(SVRG, 5, task.L, 10, tau, 16, sc.Rounds*4)
			cfg.Name = fmt.Sprintf("tau=%d on %s", tau, f.name)
			cfg.Seed = sc.Seed
			cfg.Parallel = sc.Parallel
			ts, err := trainTimed(task, cfg, fleet)
			if err != nil {
				return nil, err
			}
			row := TimingRow{Fleet: f.name, Gamma: f.profile.Gamma(), Tau: tau,
				Rounds: -1, TimeToTarget: ts.TimeToLoss(target)}
			for _, pt := range ts.Points {
				if pt.TrainLoss <= target {
					row.Rounds = pt.Round
					break
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// trainTimed runs cfg in-process on task against the fleet's simulated
// clock.
func trainTimed(task Task, cfg Config, fleet *simnet.Fleet) (*simnet.TimedSeries, error) {
	eng, _, err := engine.NewInProcess(task.Model, task.Part, cfg, nil)
	if err != nil {
		return nil, err
	}
	return simnet.Train(eng, fleet)
}

// StragglerRow is one runtime's measurement in the straggler study.
type StragglerRow struct {
	Runtime      string  // "sync" or "async"
	Spread       float64 // fleet compute-speed spread (max/min)
	TimeToTarget float64 // simulated seconds (-1: never)
}

// RunStragglerStudy compares the paper's synchronous runtime against the
// asynchronous extension (internal/async) on fleets of increasing
// compute-speed spread. Synchronous rounds are gated by the slowest
// device, so the async advantage grows with the spread — the extension
// experiment in EXPERIMENTS.md.
func RunStragglerStudy(sc Scale) ([]StragglerRow, error) {
	devices := sc.Devices
	if devices > 16 {
		devices = 16
	}
	task := SyntheticTask(SyntheticOptions{
		Devices: devices, MinSamples: 60, MaxSamples: 200, Seed: sc.Seed,
	})
	// Target above the async mixing-noise floor (~1.12 on this task):
	// async applies single-device updates sequentially, which cannot cancel
	// cross-device dispersion the way the synchronous weighted average
	// does, so it plateaus earlier; the comparison is on the early descent.
	target := 1.3
	local := LocalConfig{
		Estimator: SARAH,
		Eta:       StepSize(5, task.L),
		Tau:       10,
		Batch:     16,
		Mu:        2,
	}
	profile := simnet.DeviceProfile{ComputePerIter: 0.01, Uplink: 0.05, Downlink: 0.05}

	var rows []StragglerRow
	for _, spread := range []float64{1, 20} {
		fleet := simnet.NewHeterogeneousFleet(devices, profile, spread, sc.Seed)

		syncCfg := Config{Name: "sync", Local: local, Rounds: sc.Rounds * 8, Seed: sc.Seed}
		syncTS, err := trainTimed(task, syncCfg, fleet)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StragglerRow{
			Runtime: "sync", Spread: spread, TimeToTarget: syncTS.TimeToLoss(target),
		})

		asyncCfg := async.Config{
			Name:           "async",
			Local:          local,
			Updates:        sc.Rounds * 8 * devices,
			Alpha0:         0.6,
			StalenessPower: 0.5,
			Seed:           sc.Seed,
		}
		ar, err := async.NewRunner(task.Model, task.Part, fleet, asyncCfg)
		if err != nil {
			return nil, err
		}
		asyncTS, err := ar.Run()
		if err != nil {
			return nil, err
		}
		rows = append(rows, StragglerRow{
			Runtime: "async", Spread: spread, TimeToTarget: asyncTS.TimeToLoss(target),
		})
	}
	return rows, nil
}

// TableHeaders re-exports the paper's table columns.
var TableHeaders = search.TableHeaders

// TableRow re-exports the table row formatter.
var TableRow = search.TableRow

// Dependency re-exports used by the regenerator binaries.
var (
	// LogSpace returns n log-spaced values (Figure 1's γ axis).
	LogSpace = theory.LogSpace
)
