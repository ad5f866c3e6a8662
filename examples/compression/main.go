// Communication-efficiency example: the framed wire protocol and its
// compressed update modes, end to end.
//
//  1. Wire codecs on the real TCP runtime: the framed protocol at every
//     codec — exact float64 (the baseline), float32, int16/int8
//     range-quantized deltas, and topk-delta (int8-quantized top-k
//     sparsified delta against the broadcast anchor). Bytes are the
//     coordinator's countingConn measurement, so framing overhead is
//     included; loss/accuracy show what each lossy mode costs.
//  2. The top-k fraction of topk-delta (Coordinator.SetTopKFrac) swept on
//     the same TCP fleet: bytes moved against final loss. Dense
//     logistic-regression updates make aggressive sparsification visibly
//     lossy — in practice the residual is carried to the next round.
//  3. The (β, μ) optimum shift: compressing updates scales the paper's
//     d_com down by the measured compression ratio, which moves the
//     optimum of the training-time problem (23) — fewer local iterations
//     are needed once rounds are cheap (Section 4.3).
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/theory"
	"fedproxvr/internal/transport"
)

func main() {
	task := fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{
		Devices: 4, MinSamples: 60, MaxSamples: 200, Seed: 31,
	})
	cfg := fedproxvr.FedProxVR(fedproxvr.SVRG, 5, task.L, 10, 10, 16, 15)
	cfg.Seed = 31
	cfg.Test = task.Test

	fmt.Println("— Wire codecs on the TCP runtime —")
	fmt.Printf("%-18s %14s %10s %12s %10s\n", "codec", "bytes moved", "vs float64", "final loss", "acc")
	var exactBytes int64
	for _, codec := range []transport.Codec{
		transport.CodecFloat64,
		transport.CodecFloat32,
		transport.CodecInt16,
		transport.CodecInt8,
		transport.CodecTopK,
	} {
		loss, acc, moved := runDistributed(task, cfg, codec, transport.DefaultTopKFraction)
		if codec == transport.CodecFloat64 {
			exactBytes = moved
		}
		fmt.Printf("%-18s %14d %9.1fx %12.4f %9.2f%%\n",
			codec, moved, float64(exactBytes)/float64(moved), loss, acc*100)
	}

	fmt.Println("\n— Top-k fraction of topk-delta on the TCP runtime —")
	fmt.Printf("%-8s %14s %10s %12s %10s\n", "keep", "bytes moved", "vs float64", "final loss", "acc")
	for _, frac := range []float64{1.0, 0.25, 0.10, 0.02} {
		loss, acc, moved := runDistributed(task, cfg, transport.CodecTopK, frac)
		fmt.Printf("%-8s %14d %9.1fx %12.4f %9.2f%%\n",
			fmt.Sprintf("%.0f%%", frac*100), moved, float64(exactBytes)/float64(moved), loss, acc*100)
	}

	// Compression enters the Section 4.3 time model through d_com: a codec
	// that moves r× fewer bytes scales the communication delay to d_com/r.
	// Re-minimizing problem (23) under the scaled delay shows the optimum
	// shifting: cheap rounds favour less local work per round.
	fmt.Println("\n— (β, μ) optimum shift under compression (problem 23) —")
	problem := theory.Problem{L: 1, Lambda: 0.5, SigmaBar2: 1}
	base := theory.TimingModel{DCom: 2.0, DCmp: 0.0004} // cellular regime
	dim := task.Model.Dim()
	topK := transport.TopKFor(0, dim)
	fmt.Printf("%-22s %8s %8s %8s %8s %8s\n", "codec", "d_com", "β*", "μ*", "τ*", "T·𝒯")
	for _, row := range []struct {
		name  string
		ratio float64
	}{
		{transport.CodecFloat64.String(), 1},
		{transport.CodecInt8.String(), transport.CompressionRatio(transport.CodecInt8, dim, topK)},
		{transport.CodecTopK.String(), transport.CompressionRatio(transport.CodecTopK, dim, topK)},
	} {
		tm := theory.TimingModel{DCom: base.DCom / row.ratio, DCmp: base.DCmp}
		opt := problem.Minimize23(tm.Gamma())
		if !opt.Feasible {
			fmt.Printf("%-22s infeasible\n", row.name)
			continue
		}
		rounds := theory.GlobalRounds(10, 0.01, opt.Fed)
		fmt.Printf("%-22s %8.3f %8.1f %8.1f %8.0f %7.0fs\n",
			row.name, tm.DCom, opt.Beta, opt.Mu, opt.Tau, tm.TrainingTime(rounds, opt.Tau))
	}
}

// runDistributed executes the config over loopback TCP with the codec
// (keeping topKFrac of the delta's coordinates under topk-delta) and
// returns final loss, accuracy and total bytes moved (sent + received) as
// measured on the coordinator's connections.
func runDistributed(task fedproxvr.Task, cfg fedproxvr.Config, codec transport.Codec, topKFrac float64) (loss, acc float64, moved int64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for id := range task.Part.Clients {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w, err := transport.NewWorker(addr, id, task.Part.Clients[id], task.Model, cfg.Seed)
			if err != nil {
				log.Printf("worker %d: %v", id, err)
				return
			}
			_ = w.Serve()
		}(id)
	}
	coord, err := transport.NewCoordinatorOn(ln, len(task.Part.Clients), 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	coord.SetCodec(codec)
	if err := coord.SetTopKFrac(topKFrac); err != nil {
		log.Fatal(err)
	}
	w0 := make([]float64, task.Model.Dim())
	eng, err := coord.Engine(w0, cfg, task.Model, task.Part.Clients)
	if err != nil {
		log.Fatal(err)
	}
	series, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	coord.Shutdown()
	wg.Wait()
	last, _ := series.Last()
	sent, recv := coord.Bandwidth()
	return last.TrainLoss, last.TestAcc, sent + recv
}
