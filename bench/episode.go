package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fedproxvr/internal/engine"
)

// episode is what one run of a workload's fixed round budget showed from
// outside.
type episode struct {
	roundMs     []float64 // wall-clock between consecutive round completions, warm-up excluded
	timedWall   float64   // seconds those rounds took together
	timedRounds int
	toTargetS   float64 // first round issued → train loss first ≤ target
	toTargetN   int     // round of that crossing (0: never)
	finalLoss   float64
	allocs      float64     // mallocs per timed round, whole process
	attempted   int         // selected device-rounds
	failed      int         // of those, failed or cut as stragglers
	wireBytes   float64     // coordinator sent+received per round (TCP only)
	finite      bool        // every measured loss was finite
	final       [][]float64 // final global model(s), for the bit-identity checks
}

// roundClock is the bench's OnRound hook: it timestamps every completed
// round and picks the train loss off evaluation rounds. It is the only
// instrumentation in an untraced run.
type roundClock struct {
	sz      sizing
	start   time.Time
	at      []time.Time
	ep      episode
	mallocs uint64
	onRound func(round int) // traced runs: per-round bookkeeping
}

func newRoundClock(sz sizing) *roundClock {
	return &roundClock{sz: sz, at: make([]time.Time, 0, sz.rounds), ep: episode{finite: true}}
}

func (c *roundClock) hook(info engine.RoundInfo) error {
	now := time.Now()
	c.at = append(c.at, now)
	c.ep.attempted += len(info.Participants) + info.Failed + info.Stragglers
	c.ep.failed += info.Failed + info.Stragglers
	if p, ok := info.Series.Last(); ok && p.Round == info.Round {
		if math.IsNaN(p.TrainLoss) || math.IsInf(p.TrainLoss, 0) {
			c.ep.finite = false
		}
		if c.ep.toTargetN == 0 && p.TrainLoss <= c.sz.target {
			c.ep.toTargetN = info.Round
			c.ep.toTargetS = now.Sub(c.start).Seconds()
		}
		c.ep.finalLoss = p.TrainLoss
	}
	if info.Round == c.sz.warmup {
		c.mallocs = mallocs()
	}
	if c.onRound != nil {
		c.onRound(info.Round)
	}
	return nil
}

// run drives the engine through the episode's rounds.
func (c *roundClock) run(eng *engine.Engine) (*episode, error) {
	unhook := eng.OnRound(c.hook)
	defer unhook()
	c.start = time.Now()
	if _, err := eng.Run(context.Background()); err != nil {
		return nil, err
	}
	end := mallocs()
	if len(c.at) != c.sz.rounds {
		return nil, fmt.Errorf("%d rounds completed, want %d", len(c.at), c.sz.rounds)
	}
	ep := &c.ep
	for i := c.sz.warmup; i < len(c.at); i++ {
		ep.roundMs = append(ep.roundMs, ms(c.at[i].Sub(c.at[i-1])))
	}
	ep.timedRounds = len(ep.roundMs)
	ep.timedWall = c.at[len(c.at)-1].Sub(c.at[c.sz.warmup-1]).Seconds()
	ep.allocs = float64(end-c.mallocs) / float64(ep.timedRounds)
	ep.final = [][]float64{append([]float64(nil), eng.Global()...)}
	return ep, nil
}

// endToEnd reduces a run's episodes to the end-to-end metrics. Every
// timing is the median over episodes of the episode's own statistic, so a
// slow spell of the host that hits fewer than half the episodes moves none
// of them.
func endToEnd(eps []*episode, setups []float64, rss float64) (raw map[string]float64, attempted, failed int) {
	var p50, p90, rate, ttt, rtt, loss, allocs []float64
	for _, ep := range eps {
		p50 = append(p50, median(ep.roundMs))
		p90 = append(p90, quantile(ep.roundMs, 0.9))
		rate = append(rate, float64(ep.timedRounds)/ep.timedWall)
		ttt = append(ttt, ep.toTargetS)
		rtt = append(rtt, float64(ep.toTargetN))
		loss = append(loss, ep.finalLoss)
		allocs = append(allocs, ep.allocs)
		attempted += ep.attempted
		failed += ep.failed
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"round_ms_p50":     median(p50),
		"round_ms_p90":     median(p90),
		"rounds_per_s":     median(rate),
		"time_to_target_s": median(ttt),
		"rounds_to_target": median(rtt),
		"final_loss":       median(loss),
		"peak_rss_mb":      rss,
		"allocs_per_round": median(allocs),
	}, attempted, failed
}
