package fedproxvr

import (
	"fmt"
	"math"
	"testing"

	"fedproxvr/internal/theory"
)

// microScale keeps unit-test experiment runs in the sub-second to
// few-second range while preserving each experiment's qualitative shape.
func microScale() Scale {
	return Scale{
		Devices:         8,
		CNNDevices:      3,
		Rounds:          12,
		SamplesPerClass: 60,
		Trials:          2,
		TableRounds:     8,
		CNNWidthDiv:     16,
		CNNRounds:       6,
		Seed:            2020,
	}
}

func TestSyntheticTaskShape(t *testing.T) {
	task := SyntheticTask(SyntheticOptions{Devices: 10, MinSamples: 40, MaxSamples: 80, Seed: 1})
	if len(task.Part.Clients) != 10 {
		t.Fatalf("%d clients", len(task.Part.Clients))
	}
	if task.Test == nil || task.Test.N() == 0 {
		t.Fatal("no test split")
	}
	if task.L <= 0 {
		t.Fatal("bad smoothness estimate")
	}
	if task.Model.Dim() != 60*10+10 {
		t.Fatalf("model dim %d", task.Model.Dim())
	}
	// 75/25 split: test is about a third of train size.
	trainN := task.Part.TotalSamples()
	ratio := float64(task.Test.N()) / float64(trainN)
	if ratio < 0.2 || ratio > 0.5 {
		t.Fatalf("train/test ratio off: %v", ratio)
	}
}

func TestImageTaskShape(t *testing.T) {
	task, err := ImageTask(ImageOptions{Style: Fashion, Devices: 10, SamplesPerClass: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if task.Model.Dim() != 784*10+10 {
		t.Fatalf("model dim %d", task.Model.Dim())
	}
	for _, shard := range task.Part.Clients {
		if shard.N() == 0 {
			t.Fatal("empty shard")
		}
	}
}

// TestCNNTaskHonoursDeviceCount: a device count other than 0 is the
// task's shard count, above the default 10 too (CNNTask once clamped it to
// 10 without an error).
func TestCNNTaskHonoursDeviceCount(t *testing.T) {
	task, err := CNNTask(ImageOptions{Style: Digits, Devices: 20, SamplesPerClass: 30, MinSamples: 4, MaxSamples: 20, Seed: 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(task.Part.Clients); n != 20 {
		t.Fatalf("CNNTask with 20 devices built %d shards", n)
	}
}

func TestCNNTaskShape(t *testing.T) {
	task, err := CNNTask(ImageOptions{Style: Digits, SamplesPerClass: 30, Seed: 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Part.Clients) != 10 {
		t.Fatalf("CNN task should default to 10 devices, got %d", len(task.Part.Clients))
	}
	if task.InitW == nil {
		t.Fatal("CNN task must carry an initialization")
	}
	var nonzero bool
	for _, v := range task.InitW {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("CNN init is all zeros")
	}
}

func TestTrainEndToEnd(t *testing.T) {
	task := SyntheticTask(SyntheticOptions{Devices: 8, MinSamples: 40, MaxSamples: 120, Seed: 4})
	cfg := FedProxVR(SARAH, 5, task.L, 10, 20, 16, 15)
	cfg.Seed = 5
	cfg.Parallel = true
	series, w, err := Train(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != task.Model.Dim() {
		t.Fatal("returned model has wrong dimension")
	}
	last, _ := series.Last()
	if last.TrainLoss >= series.Points[0].TrainLoss {
		t.Fatalf("no training progress: %v -> %v", series.Points[0].TrainLoss, last.TrainLoss)
	}
	if math.IsNaN(last.TestAcc) || last.TestAcc < 0.5 {
		t.Fatalf("test accuracy %v too low", last.TestAcc)
	}
}

func TestTrainValidatesTask(t *testing.T) {
	if _, _, err := Train(Task{}, Config{}); err == nil {
		t.Fatal("empty task should error")
	}
}

func TestRunFig1Shape(t *testing.T) {
	sigma2s, gammas := Fig1Defaults()
	rows := RunFig1(sigma2s[:1], gammas[:4])
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Feasible {
			t.Fatalf("γ=%v infeasible under paper constants", r.Gamma)
		}
	}
	// γ-trend (paper Fig. 1): optimal β decreases, μ increases.
	first, last := rows[0], rows[len(rows)-1]
	if last.Beta >= first.Beta {
		t.Fatalf("β should fall with γ: %v -> %v", first.Beta, last.Beta)
	}
	if last.Mu <= first.Mu {
		t.Fatalf("μ should rise with γ: %v -> %v", first.Mu, last.Mu)
	}
}

func TestRunFig4Shape(t *testing.T) {
	sc := microScale()
	sc.Rounds = 24
	sc.Devices = 10
	series, err := RunFig4(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(Fig4Mus()) {
		t.Fatalf("%d series", len(series))
	}
	upticks := func(s *Series) int {
		n := 0
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].TrainLoss > s.Points[i-1].TrainLoss*1.001 {
				n++
			}
		}
		return n
	}
	// μ=0 must fluctuate (the paper's divergence); stabilized runs not.
	if upticks(series[0]) == 0 {
		t.Fatal("μ=0 run did not fluctuate at the aggressive step size")
	}
	mu0Last, _ := series[0].Last()
	mu20Last, _ := series[1].Last()
	if mu20Last.TrainLoss >= mu0Last.TrainLoss {
		t.Fatalf("μ>0 (%v) should beat μ=0 (%v)", mu20Last.TrainLoss, mu0Last.TrainLoss)
	}
	// Larger μ converges more slowly: final losses increase across μ>0.
	prev := mu20Last.TrainLoss
	for _, s := range series[2:] {
		last, _ := s.Last()
		if last.TrainLoss <= prev {
			t.Fatalf("larger μ should be slower: %v then %v", prev, last.TrainLoss)
		}
		prev = last.TrainLoss
	}
}

func TestRunFig3MicroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN smoke test skipped in -short")
	}
	sc := microScale()
	results, err := RunFig3(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*3 {
		t.Fatalf("%d results, want 6 (2 settings × 3 algorithms)", len(results))
	}
	for _, r := range results {
		last, ok := r.Series.Last()
		if !ok {
			t.Fatal("empty series")
		}
		if math.IsNaN(last.TrainLoss) || math.IsInf(last.TrainLoss, 0) {
			t.Fatalf("%s: non-finite loss", r.Series.Name)
		}
		// At micro scale the per-round loss is not monotone; require that
		// the best loss seen improves on the initialization.
		best := math.Inf(1)
		for _, p := range r.Series.Points {
			best = math.Min(best, p.TrainLoss)
		}
		if best >= r.Series.Points[0].TrainLoss {
			t.Fatalf("%s: no progress over %d rounds", r.Series.Name, len(r.Series.Points)-1)
		}
	}
}

func TestRunTable1Micro(t *testing.T) {
	sc := microScale()
	rows, err := RunTable1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d table rows, want 3", len(rows))
	}
	names := []string{"FedAvg", "FedProxVR (SVRG)", "FedProxVR (SARAH)"}
	for i, r := range rows {
		if r.Best.Algorithm != names[i] {
			t.Fatalf("row %d is %q, want %q", i, r.Best.Algorithm, names[i])
		}
		if r.Best.BestAcc <= 0.1 {
			t.Fatalf("%s: accuracy %v at chance level", names[i], r.Best.BestAcc)
		}
		if len(r.Trials) == 0 {
			t.Fatal("no trials recorded")
		}
		// FedAvg row must have μ=0.
		if i == 0 && r.Best.Mu != 0 {
			t.Fatal("FedAvg searched μ≠0")
		}
		if len(TableRow(r.Best)) != len(TableHeaders()) {
			t.Fatal("row width mismatch")
		}
	}
}

func TestFigSettings(t *testing.T) {
	f2 := Fig2Settings()
	if len(f2) != 3 || !f2[2].AboveBound {
		t.Fatal("Fig2 settings wrong")
	}
	for _, s := range f2 {
		if s.Batch != 32 {
			t.Fatal("paper uses B=32 for Fig 2")
		}
	}
	for _, s := range Fig3Settings() {
		if s.Batch != 64 {
			t.Fatal("paper uses B=64 for Fig 3")
		}
	}
}

func TestScalesSane(t *testing.T) {
	for _, sc := range []Scale{PaperScale(), QuickScale(), microScale()} {
		if sc.Devices < 1 || sc.Rounds < 1 || sc.Trials < 1 || sc.CNNWidthDiv < 1 {
			t.Fatalf("degenerate scale %+v", sc)
		}
	}
	if PaperScale().CNNWidthDiv != 1 {
		t.Fatal("paper scale must use the full-width CNN")
	}
	if PaperScale().Devices != 100 || PaperScale().CNNDevices != 10 {
		t.Fatal("paper scale device counts must match the paper")
	}
}

func TestRunTimingStudyCrossover(t *testing.T) {
	sc := microScale()
	sc.Rounds = 30
	rows, err := RunTimingStudy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	best := map[string]TimingRow{}
	for _, r := range rows {
		if r.TimeToTarget < 0 {
			t.Fatalf("%s tau=%d never reached the target", r.Fleet, r.Tau)
		}
		b, ok := best[r.Fleet]
		if !ok || r.TimeToTarget < b.TimeToTarget {
			best[r.Fleet] = r
		}
	}
	// Section 4.3's trade-off: the optimal τ is larger on the slow network
	// than on the fast one.
	if best["slow-net"].Tau <= best["fast-net"].Tau {
		t.Fatalf("crossover missing: slow-net best τ=%d, fast-net best τ=%d",
			best["slow-net"].Tau, best["fast-net"].Tau)
	}
}

func TestRunStragglerStudyCrossover(t *testing.T) {
	sc := microScale()
	sc.Rounds = 20
	sc.Devices = 16
	rows, err := RunStragglerStudy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	times := map[string]float64{}
	for _, r := range rows {
		if r.TimeToTarget < 0 {
			t.Fatalf("%s at spread %g never reached the target", r.Runtime, r.Spread)
		}
		times[fmt.Sprintf("%s-%g", r.Runtime, r.Spread)] = r.TimeToTarget
	}
	// The async advantage appears exactly when stragglers do.
	if times["async-20"] >= times["sync-20"] {
		t.Fatalf("async (%.1fs) should beat sync (%.1fs) at spread 20",
			times["async-20"], times["sync-20"])
	}
	if times["sync-1"] >= times["async-1"] {
		t.Fatalf("sync (%.1fs) should beat async (%.1fs) on a uniform fleet",
			times["sync-1"], times["async-1"])
	}
}

func TestFig2AboveBoundPanelViolatesLemma1(t *testing.T) {
	// The third Fig. 2 panel must actually exceed the Lemma 1(a) bound —
	// otherwise the "above bound" label is wrong.
	set := Fig2Settings()[2]
	if !set.AboveBound {
		t.Fatal("third panel should be the above-bound one")
	}
	if float64(set.Tau) <= theory.TauUpperSARAH(set.Beta) {
		t.Fatalf("τ=%d does not exceed the SARAH bound %v at β=%v",
			set.Tau, theory.TauUpperSARAH(set.Beta), set.Beta)
	}
	// The within-bound panels must respect it.
	for _, s := range Fig2Settings()[:2] {
		if float64(s.Tau) > theory.TauUpperSARAH(s.Beta) {
			t.Fatalf("panel %q unexpectedly violates the bound", s.Label)
		}
	}
}
