// Command fedclient is one peer of the distributed runtime — a device, or
// with -tree-fanout a shard node of the aggregation tree: it regenerates
// its data deterministically from the shared seed, connects to a
// fedserver, and serves local-solve rounds until told to stop. Start it
// with the same dataset flags and seed as the server. It exits non-zero if
// the server goes away before saying Done.
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

// peer is what a Worker and an AggregatorNode share: the session's
// setters, then Serve.
type peer interface {
	SetChaos(*chaos.Schedule) error
	SetLease(jobID string, epoch int64)
	SetRejoin(attempts int, backoff time.Duration)
	EnableTrace()
	Serve() error
}

func main() {
	var (
		addr      = flag.String("addr", "localhost:7070", "server address")
		id        = flag.Int("id", 0, "this device's id in [0, devices)")
		devices   = flag.Int("devices", 3, "total device count (must match the server)")
		dataset   = flag.String("dataset", "synthetic", "synthetic | digits | fashion")
		samples   = flag.Int("samples", 120, "image samples per class (image datasets)")
		seed      = flag.Int64("seed", 2020, "shared experiment seed")
		chaosPath = flag.String("chaos", "", "inject faults from this JSON schedule (see internal/chaos)")
		rejoin    = flag.Int("rejoin", -1, "re-dial attempts after losing the server (-1 = default: 0, or 40 with -chaos or -job)")
		rejoinGap = flag.Duration("rejoin-backoff", 25*time.Millisecond, "pause between re-dial attempts")
		spans     = flag.Bool("trace-spans", false, "record solve spans and ship them to a tracing server")
		fanout    = flag.Int("tree-fanout", 0, "run as aggregation-tree shard node #id of this many (0 = plain single-device worker); must match the server's -tree-fanout")
		virtDev   = flag.Int("virtual-devices", 0, "total virtual devices across the tree (must match the server's -virtual-devices)")
		jobID     = flag.String("job", "", "lease this peer to one job ID (must match the server's -job)")
		epoch     = flag.Int64("lease-epoch", 0, "lease epoch presented in the handshake; a stale epoch is rejected and the peer adopts the server's current lease before rejoining")
	)
	flag.Parse()

	p, err := newPeer(*addr, *id, *devices, *fanout, *virtDev, *dataset, *samples, *seed)
	if err != nil {
		fatal(err)
	}
	if *chaosPath != "" {
		sched, err := chaos.Load(*chaosPath)
		if err != nil {
			fatal(err)
		}
		if err := p.SetChaos(sched); err != nil {
			fatal(err)
		}
	}
	p.SetLease(*jobID, *epoch)
	if *rejoin >= 0 {
		p.SetRejoin(*rejoin, *rejoinGap)
	}
	if *spans {
		p.EnableTrace()
	}
	if err := p.Serve(); err != nil {
		fatal(err)
	}
	fmt.Printf("fedclient %d: done\n", *id)
}

// newPeer regenerates the data deterministically and builds the process's
// peer: the worker of device id, or with -tree-fanout shard node #id of the
// aggregation tree, which keeps the contiguous slice [id·M/N, (id+1)·M/N)
// of the M virtual devices and streams one weighted partial sum per round.
func newPeer(addr string, id, devices, fanout, virtDev int, dataset string, samples int, seed int64) (peer, error) {
	n := devices
	switch {
	case fanout > 0 && virtDev < fanout:
		return nil, fmt.Errorf("-virtual-devices (%d) must be >= -tree-fanout (%d)", virtDev, fanout)
	case fanout > 0:
		n = virtDev
		if id < 0 || id >= fanout {
			return nil, fmt.Errorf("id %d outside [0,%d)", id, fanout)
		}
	case virtDev > 0:
		return nil, fmt.Errorf("-virtual-devices needs -tree-fanout")
	case id < 0 || id >= devices:
		return nil, fmt.Errorf("id %d outside [0,%d)", id, devices)
	}
	task, err := clisetup.Task(dataset, "softmax", n, samples, 1, seed)
	if err != nil {
		return nil, err
	}
	if fanout == 0 {
		shard := task.Part.Clients[id]
		fmt.Printf("fedclient %d: shard of %d samples, dialing %s\n", id, shard.N(), addr)
		return transport.NewWorker(addr, id, shard, task.Model, seed)
	}
	lo, hi := id*virtDev/fanout, (id+1)*virtDev/fanout
	fmt.Printf("fedclient %d: tree shard of %d virtual devices [%d,%d), dialing %s\n", id, hi-lo, lo, hi, addr)
	return transport.NewAggregatorNode(addr, id, lo, task.Part.Clients[lo:hi], task.Model, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedclient:", err)
	os.Exit(1)
}
