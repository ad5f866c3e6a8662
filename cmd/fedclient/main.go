// Command fedclient is one device of the distributed runtime: it
// regenerates its data shard deterministically from the shared seed,
// connects to a fedserver, and serves local-solve rounds until told to
// stop. Start it with the same dataset flags and seed as the server.
//
// Example:
//
//	fedclient -addr localhost:7070 -id 0 -devices 3 -dataset synthetic
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fedproxvr/internal/chaos"
	"fedproxvr/internal/clisetup"
	"fedproxvr/internal/transport"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:7070", "server address")
		id        = flag.Int("id", 0, "this device's id in [0, devices)")
		devices   = flag.Int("devices", 3, "total device count (must match the server)")
		dataset   = flag.String("dataset", "synthetic", "synthetic | digits | fashion")
		samples   = flag.Int("samples", 120, "image samples per class (image datasets)")
		seed      = flag.Int64("seed", 2020, "shared experiment seed")
		chaosPath = flag.String("chaos", "", "inject faults from this JSON schedule (see internal/chaos)")
		rejoin    = flag.Int("rejoin", -1, "re-dial attempts after losing the server (-1 = default: 0, or 40 with -chaos)")
		rejoinGap = flag.Duration("rejoin-backoff", 25*time.Millisecond, "pause between re-dial attempts")
		spans     = flag.Bool("trace-spans", false, "record solve spans and ship them to a tracing server")
		codecStr  = flag.String("codec", "", "pin the reply codec (float64|float32|int16|int8|topk-delta); default: follow the server's round requests. A pin that disagrees with the server is rejected per round, not silently dequantized")
		fanout    = flag.Int("tree-fanout", 0, "run as aggregation-tree shard node #id of this many (0 = plain single-device worker); must match the server's -tree-fanout")
		virtDev   = flag.Int("virtual-devices", 0, "total virtual devices across the tree (must match the server's -virtual-devices)")
		jobID     = flag.String("job", "", "lease this worker to one job ID (must match the server's -job)")
		epoch     = flag.Int64("lease-epoch", 0, "lease epoch presented in the handshake; a stale epoch is rejected and the worker adopts the server's current lease before rejoining")
	)
	flag.Parse()

	if *fanout > 0 {
		if *jobID != "" || *epoch != 0 {
			fatal(fmt.Errorf("-job/-lease-epoch leases drive flat workers; drop -tree-fanout"))
		}
		runTreeNode(*addr, *id, *fanout, *virtDev, *dataset, *samples, *seed,
			*chaosPath, *rejoin, *rejoinGap, *spans, *codecStr)
		return
	}
	if *virtDev > 0 {
		fatal(fmt.Errorf("-virtual-devices needs -tree-fanout"))
	}
	if *id < 0 || *id >= *devices {
		fatal(fmt.Errorf("id %d outside [0,%d)", *id, *devices))
	}
	task, err := clisetup.Task(*dataset, "softmax", *devices, *samples, 1, *seed)
	if err != nil {
		fatal(err)
	}
	shard := task.Part.Clients[*id]
	fmt.Printf("fedclient %d: shard of %d samples, dialing %s\n", *id, shard.N(), *addr)

	var worker *transport.Worker
	switch {
	case *jobID != "":
		if *chaosPath != "" {
			fatal(fmt.Errorf("-job and -chaos are mutually exclusive"))
		}
		worker, err = transport.NewLeasedWorker(*addr, *id, shard, task.Model, *seed, *jobID, *epoch)
		if err != nil {
			fatal(err)
		}
	case *chaosPath != "":
		sched, err := chaos.Load(*chaosPath)
		if err != nil {
			fatal(err)
		}
		worker, err = transport.NewChaosWorker(*addr, *id, shard, task.Model, *seed, sched)
		if err != nil {
			fatal(err)
		}
	default:
		worker, err = transport.NewWorker(*addr, *id, shard, task.Model, *seed)
		if err != nil {
			fatal(err)
		}
	}
	if *codecStr != "" {
		codec, err := transport.ParseCodec(*codecStr)
		if err != nil {
			fatal(err)
		}
		worker.ForceCodec(codec)
	}
	if *rejoin >= 0 {
		worker.SetRejoin(*rejoin, *rejoinGap)
	}
	if *spans {
		worker.EnableTrace()
	}
	if err := worker.Serve(); err != nil {
		fatal(err)
	}
	fmt.Printf("fedclient %d: done\n", *id)
}

// runTreeNode runs the process as aggregation-tree shard node #id: it
// regenerates the full virtual-device partition deterministically, keeps the
// contiguous slice [id·M/N, (id+1)·M/N), and streams one weighted partial
// sum per round to the tree coordinator.
func runTreeNode(addr string, id, fanout, virtDev int, dataset string, samples int, seed int64,
	chaosPath string, rejoin int, rejoinGap time.Duration, spans bool, codecStr string) {
	if id < 0 || id >= fanout {
		fatal(fmt.Errorf("id %d outside [0,%d)", id, fanout))
	}
	if virtDev < fanout {
		fatal(fmt.Errorf("-virtual-devices (%d) must be >= -tree-fanout (%d)", virtDev, fanout))
	}
	if codecStr != "" && codecStr != "float64" {
		fatal(fmt.Errorf("the aggregation tree is float64-only; drop -codec %s", codecStr))
	}
	task, err := clisetup.Task(dataset, "softmax", virtDev, samples, 1, seed)
	if err != nil {
		fatal(err)
	}
	lo, hi := id*virtDev/fanout, (id+1)*virtDev/fanout
	shards := task.Part.Clients[lo:hi]
	fmt.Printf("fedclient %d: tree shard of %d virtual devices [%d,%d), dialing %s\n", id, hi-lo, lo, hi, addr)

	var node *transport.AggregatorNode
	if chaosPath != "" {
		sched, err := chaos.Load(chaosPath)
		if err != nil {
			fatal(err)
		}
		node, err = transport.NewChaosAggregatorNode(addr, id, lo, shards, task.Model, seed, sched)
		if err != nil {
			fatal(err)
		}
	} else {
		node, err = transport.NewAggregatorNode(addr, id, lo, shards, task.Model, seed)
		if err != nil {
			fatal(err)
		}
	}
	if rejoin >= 0 {
		node.SetRejoin(rejoin, rejoinGap)
	}
	if spans {
		node.EnableTrace()
	}
	if err := node.Serve(); err != nil {
		fatal(err)
	}
	fmt.Printf("fedclient %d: done\n", id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedclient:", err)
	os.Exit(1)
}
