// Quickstart: train a federated multinomial logistic regression on the
// heterogeneous Synthetic(1,1) dataset with FedProxVR (SARAH) and compare
// it against the FedAvg baseline — the minimal end-to-end use of the
// public API.
package main

import (
	"fmt"
	"log"

	fedproxvr "fedproxvr"
)

func main() {
	// 1. Build the task: 20 devices, power-law shard sizes, device-specific
	//    data distributions, 75/25 train/test split.
	task := fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{
		Devices: 20,
		Alpha:   1, // FedProx's model heterogeneity; changes no sample (see data.SyntheticConfig)
		Beta:    1, // feature heterogeneity across devices
		Seed:    42,
	})
	fmt.Printf("task: %d devices, %d training samples, L≈%.1f\n",
		len(task.Part.Clients), task.Part.TotalSamples(), task.L)

	// 2. Configure the algorithms. η = 1/(βL); FedProxVR adds the proximal
	//    penalty μ and a variance-reduced estimator.
	const (
		beta   = 5.0
		tau    = 20
		batch  = 32
		mu     = 10.0
		rounds = 60
	)
	configs := []fedproxvr.Config{
		fedproxvr.FedAvg(beta, task.L, tau, batch, rounds),
		fedproxvr.FedProxVR(fedproxvr.SVRG, beta, task.L, mu, tau, batch, rounds),
		fedproxvr.FedProxVR(fedproxvr.SARAH, beta, task.L, mu, tau, batch, rounds),
	}

	// 3. Train and report.
	fmt.Printf("%-22s %10s %10s %8s\n", "algorithm", "loss[0]", "loss[T]", "acc")
	for _, cfg := range configs {
		cfg.Seed = 42
		cfg.Parallel = true
		cfg.EvalEvery = 10
		series, _, err := fedproxvr.Train(task, cfg)
		if err != nil {
			log.Fatal(err)
		}
		last, _ := series.Last()
		fmt.Printf("%-22s %10.4f %10.4f %7.2f%%\n",
			cfg.Name, series.Points[0].TrainLoss, last.TrainLoss, last.TestAcc*100)
	}
}
