// Package clisetup holds the task/config construction shared by the CLI
// binaries (fedsim, fedserver, fedclient), so a server and its clients
// derive identical experiments from identical flags.
package clisetup

import (
	"fmt"
	"io"
	"math"
	"os"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/trace"
)

// Task builds the experiment task named by the dataset/model flags.
// Determinism: the same (dataset, model, devices, samples, widthDiv, seed)
// always yields the same task on every process.
func Task(dataset, model string, devices, samples, widthDiv int, seed int64) (fedproxvr.Task, error) {
	build, err := taskBuilder(dataset, model, devices, samples, widthDiv, seed)
	if err != nil {
		return fedproxvr.Task{}, err
	}
	return build()
}

// CheckTask returns the error Task gives for the same flags, without
// generating any data.
func CheckTask(dataset, model string, devices, samples, widthDiv int, seed int64) error {
	_, err := taskBuilder(dataset, model, devices, samples, widthDiv, seed)
	return err
}

// taskBuilder resolves the flags to the function that generates their
// task. Its error is every refusal Task can give, so the builder it
// returns does not fail.
func taskBuilder(dataset, model string, devices, samples, widthDiv int, seed int64) (func() (fedproxvr.Task, error), error) {
	switch dataset {
	case "synthetic":
		if model != "softmax" {
			return nil, fmt.Errorf("synthetic dataset supports only the softmax model")
		}
		return func() (fedproxvr.Task, error) {
			return fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{Devices: devices, Seed: seed}), nil
		}, nil
	case "digits", "fashion":
		style := fedproxvr.Digits
		if dataset == "fashion" {
			style = fedproxvr.Fashion
		}
		opts := fedproxvr.ImageOptions{Style: style, Devices: devices, SamplesPerClass: samples, Seed: seed}
		if err := opts.Validate(); err != nil {
			return nil, err
		}
		switch model {
		case "softmax":
			return func() (fedproxvr.Task, error) { return fedproxvr.ImageTask(opts) }, nil
		case "cnn":
			return func() (fedproxvr.Task, error) { return fedproxvr.CNNTask(opts, widthDiv) }, nil
		default:
			return nil, fmt.Errorf("unknown model %q", model)
		}
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

// Config builds the algorithm configuration named by the alg flag. β sets
// the step size η = 1/(βL), so it must be finite and positive.
func Config(alg string, beta, l, mu float64, tau, batch, rounds int) (fedproxvr.Config, error) {
	if !(beta > 0) || math.IsInf(beta, 1) {
		return fedproxvr.Config{}, fmt.Errorf("beta must be finite and > 0, got %v", beta)
	}
	switch alg {
	case "fedavg":
		return fedproxvr.FedAvg(beta, l, tau, batch, rounds), nil
	case "fedprox":
		return fedproxvr.FedProx(beta, l, mu, tau, batch, rounds), nil
	case "svrg":
		return fedproxvr.FedProxVR(fedproxvr.SVRG, beta, l, mu, tau, batch, rounds), nil
	case "sarah":
		return fedproxvr.FedProxVR(fedproxvr.SARAH, beta, l, mu, tau, batch, rounds), nil
	default:
		return fedproxvr.Config{}, fmt.Errorf("unknown algorithm %q", alg)
	}
}

// ExportTrace writes the collected spans as Chrome trace-event JSON to
// chromePath and as JSONL to jsonlPath; an empty path skips its format.
func ExportTrace(tr *trace.Tracer, chromePath, jsonlPath string) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{{chromePath, tr.WriteChrome}, {jsonlPath, tr.WriteJSONL}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
