// Heterogeneity study, in two parts.
//
// Empirical: at an aggressive step size, FedProxVR with μ=0 fluctuates and
// stalls at every Synthetic(α, β) heterogeneity level, while μ>0 converges
// smoothly — the proximal "soft consensus" term is what keeps aggressive
// local training stable (the paper's Fig. 4 message). The levels are
// α = β ∈ {0.5, 1, 1.5}. There is no 0 row: SyntheticTask reads a zero α
// or β as its default 1, so a "0" row would run Synthetic(1, 1) again.
// Only β moves the data: α shifts every class's logit alike and changes
// no sample (see data.SyntheticConfig).
//
// Theory: the σ̄²-divergence of Assumption 1 caps the admissible local
// accuracy at θ < (2(1+σ̄²))^(−1/2) (Remark 2), so more heterogeneous
// devices must solve their local problems more accurately — the required
// β_min and τ grow steeply with σ̄².
package main

import (
	"fmt"
	"log"

	fedproxvr "fedproxvr"
)

func main() {
	const (
		devices = 16
		eta     = 0.6 // fixed aggressive step size so client drift is visible
		tau     = 50
		batch   = 16
		rounds  = 40
	)

	fmt.Println("Empirical: final global loss (and loss up-ticks: instability) after", rounds, "rounds")
	fmt.Printf("%-12s %20s %20s\n", "α=β (het.)", "μ=0 (drift)", "μ=20 (proximal)")
	for _, het := range []float64{0.5, 1, 1.5} {
		task := fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{
			Devices: devices, Alpha: het, Beta: het,
			MinSamples: 50, MaxSamples: 300, Seed: 7,
		})
		// Hold the absolute step size fixed across heterogeneity levels
		// (β varies with each task's estimated L).
		beta := 1 / (eta * task.L)
		cells := make([]string, 2)
		for i, mu := range []float64{0, 20} {
			cfg := fedproxvr.FedProxVR(fedproxvr.SVRG, beta, task.L, mu, tau, batch, rounds)
			cfg.Seed = 7
			cfg.Parallel = true
			cfg.EvalEvery = 2
			series, _, err := fedproxvr.Train(task, cfg)
			if err != nil {
				log.Fatal(err)
			}
			last, _ := series.Last()
			up := 0
			for j := 1; j < len(series.Points); j++ {
				if series.Points[j].TrainLoss > series.Points[j-1].TrainLoss*1.001 {
					up++
				}
			}
			cells[i] = fmt.Sprintf("%.4f (%d up-ticks)", last.TrainLoss, up)
		}
		fmt.Printf("%-12.1f %20s %20s\n", het, cells[0], cells[1])
	}

	// Theory: the admissible local accuracy θ < (2(1+σ̄²))^(−1/2) shrinks
	// with heterogeneity, i.e. heterogeneous devices must solve their local
	// problems more accurately (more local iterations).
	fmt.Println("\nTheory: θ-cap and required τ at β where bounds cross (L=1, λ=0.5, μ=2)")
	fmt.Printf("%-8s %10s %12s %8s\n", "σ̄²", "θ-cap", "β_min", "τ")
	for _, s2 := range []float64{0.1, 1, 4, 10} {
		p := fedproxvr.Problem{L: 1, Lambda: 0.5, SigmaBar2: s2}
		cap := p.ThetaMax()
		theta := cap * 0.9 // work at 90% of the admissible accuracy
		betaMin, ok := p.BetaMinSARAH(theta, 2, 1e7)
		if !ok {
			fmt.Printf("%-8.1f %10.4f %12s %8s\n", s2, cap, "-", "-")
			continue
		}
		tauNeeded := int((5*betaMin*betaMin - 4*betaMin) / 8)
		fmt.Printf("%-8.1f %10.4f %12.1f %8d\n", s2, cap, betaMin, tauNeeded)
	}
}
