// Distributed example: the TCP runtime end-to-end in a single process —
// a coordinator and four workers on loopback, exactly the topology of
// cmd/fedserver + cmd/fedclient, then a bit-for-bit comparison against the
// in-process simulator. Both runs drive the same internal/engine outer
// loop — only the Executor's one method, RunRound, differs (a TCP wire
// round vs in-process solves from the same RoundSpec) — which is why the
// models match exactly.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/transport"
)

func main() {
	task := fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{
		Devices: 4, MinSamples: 60, MaxSamples: 200, Seed: 99,
	})
	cfg := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, task.L, 10, 15, 16, 10)
	cfg.Seed = 99
	cfg.Test = task.Test

	// Bind first so workers can dial while the coordinator waits.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	fmt.Println("coordinator listening on", addr)

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
			if err := w.Serve(); err != nil {
				log.Printf("worker %d: %v", id, err)
			}
		}(id)
	}

	coord, err := transport.NewCoordinatorOn(ln, len(task.Part.Clients), 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	start := time.Now()
	w0 := make([]float64, task.Model.Dim())
	eng, err := coord.Engine(w0, cfg, task.Model, task.Part.Clients)
	if err != nil {
		log.Fatal(err)
	}
	series, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	wDist := eng.Global()
	coord.Shutdown()
	wg.Wait()
	last, _ := series.Last()
	fmt.Printf("distributed: %d rounds in %s, loss %.4f, acc %.2f%%\n",
		cfg.Rounds, time.Since(start).Round(time.Millisecond), last.TrainLoss, last.TestAcc*100)

	// The in-process simulator must produce the same model bit-for-bit.
	runner, err := fedproxvr.NewRunner(task, cfg)
	if err != nil {
		log.Fatal(err)
	}
	runner.Run()
	wSim := runner.Global()
	for i := range wSim {
		if wSim[i] != wDist[i] {
			log.Fatalf("mismatch at coordinate %d: %v (sim) vs %v (dist)", i, wSim[i], wDist[i])
		}
	}
	fmt.Println("in-process simulator reproduced the distributed model exactly ✓")
}
