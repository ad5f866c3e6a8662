// Package chaos is the deterministic fault-injection layer of the
// federated runtimes: a seeded, declarative schedule of per-device,
// per-round fault events with two enforcement points — an engine.Executor
// decorator for the in-process and simnet backends (see Executor) and a
// net.Conn wrapper for the TCP worker (see Conn, wired through
// transport.NewChaosWorker) — so the same schedule + seed produces the
// same failure pattern on every backend.
//
// The package is deliberately declarative: a Schedule says *what* fails
// *when*; the enforcement points translate events into the failure idiom
// native to their runtime (a nil partial result in-process, a torn TCP
// connection plus rejoin on the wire). Corruption noise is derived from
// the schedule seed and the (device, round) pair, never from wall-clock
// entropy, which is what keeps a corrupted run bit-identical across
// backends.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"fedproxvr/internal/randx"
)

// Kind names one fault type.
type Kind string

const (
	// Crash fails the device for exactly one round: in-process the device
	// never runs; on the wire the worker drops its connection before
	// solving and rejoins afterwards.
	Crash Kind = "crash"
	// Flake makes the device fail its first attempt of the round and
	// succeed on retry. Only the TCP path has attempts (FaultPolicy
	// retries); in-process backends treat a flake as a no-op, which keeps
	// the metric series bit-identical across backends — the retry is
	// visible only in the transport's retry counter.
	Flake Kind = "flake"
	// Delay makes the device report late by the event's Delay. With a
	// RoundDeadline armed the device is cut and counted as a straggler;
	// without one the round simply takes longer.
	Delay Kind = "delay"
	// Corrupt adds seeded Gaussian noise (stddev Scale, default 1) to the
	// device's reported model. The noise is a pure function of
	// (schedule seed, device, round), so every backend corrupts
	// identically.
	Corrupt Kind = "corrupt"
	// Partition takes the device out of every round in [Round, Until):
	// repeated crashes in-process, a held-down connection on the wire.
	Partition Kind = "partition"
)

// Event is one scheduled fault.
type Event struct {
	// Device is the target device/client ID.
	Device int `json:"device"`
	// Round is the 1-based global round the event fires in (for Partition,
	// the first affected round).
	Round int `json:"round"`
	// Kind is the fault type.
	Kind Kind `json:"kind"`
	// DelayMS is the lateness in milliseconds (Delay events only).
	DelayMS float64 `json:"delay_ms,omitempty"`
	// Scale is the corruption noise stddev (Corrupt events only; 0 means 1).
	Scale float64 `json:"scale,omitempty"`
	// Until is the first round the device is back (Partition events only;
	// the device is out for rounds Round ≤ t < Until).
	Until int `json:"until,omitempty"`
}

// Delay returns the event's lateness as a duration.
func (e Event) Delay() time.Duration {
	return time.Duration(e.DelayMS * float64(time.Millisecond))
}

// Schedule is a complete, seeded fault plan. Build one from JSON (Load,
// Parse) or programmatically (Events + Validate).
// After Validate succeeds the schedule is immutable and safe for
// concurrent readers — both enforcement points of a conformance run may
// share one instance.
type Schedule struct {
	// Seed drives the corruption noise. Independent from the experiment
	// seed.
	Seed int64 `json:"seed"`
	// Events are the scheduled faults, in any order.
	Events []Event `json:"events"`

	exact      map[[2]int]Event // (device, round) → event, partitions excluded
	partitions map[int][]Event  // device → partition events
	rounds     map[int]bool     // rounds with at least one exact event
}

// Load reads and validates a JSON schedule from path.
func Load(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Parse reads and validates a JSON schedule.
func Parse(r io.Reader) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("chaos: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks every event and compiles the lookup tables ActionFor
// uses. It must be called once before a hand-built schedule is shared
// across goroutines; Load and Parse call it for you. A partition is kept
// as its [Round, Until) interval, never expanded round by round, so its
// length costs nothing.
func (s *Schedule) Validate() error {
	exact := make(map[[2]int]Event, len(s.Events))
	partitions := make(map[int][]Event)
	rounds := make(map[int]bool)
	twice := func(device, round int) error {
		return fmt.Errorf("chaos: device %d has two events in round %d", device, round)
	}
	for _, ev := range s.Events {
		if ev.Device < 0 {
			return fmt.Errorf("chaos: negative device %d", ev.Device)
		}
		if ev.Round < 1 {
			return fmt.Errorf("chaos: device %d: round must be ≥ 1, got %d", ev.Device, ev.Round)
		}
		switch ev.Kind {
		case Crash, Flake, Corrupt:
		case Delay:
			if ev.DelayMS <= 0 {
				return fmt.Errorf("chaos: device %d round %d: delay event needs delay_ms > 0", ev.Device, ev.Round)
			}
		case Partition:
			if ev.Until <= ev.Round {
				return fmt.Errorf("chaos: device %d round %d: partition needs until > round, got %d", ev.Device, ev.Round, ev.Until)
			}
		default:
			return fmt.Errorf("chaos: device %d round %d: unknown kind %q", ev.Device, ev.Round, ev.Kind)
		}
		if ev.Scale < 0 {
			return fmt.Errorf("chaos: device %d round %d: negative scale %v", ev.Device, ev.Round, ev.Scale)
		}
		if ev.Kind == Partition {
			for _, p := range partitions[ev.Device] {
				if ev.Round < p.Until && p.Round < ev.Until {
					return twice(ev.Device, max(ev.Round, p.Round))
				}
			}
			partitions[ev.Device] = append(partitions[ev.Device], ev)
			continue
		}
		key := [2]int{ev.Device, ev.Round}
		if _, dup := exact[key]; dup {
			return twice(ev.Device, ev.Round)
		}
		exact[key] = ev
		rounds[ev.Round] = true
	}
	for _, ev := range s.Events {
		for _, p := range partitions[ev.Device] {
			if ev.Kind != Partition && ev.Round >= p.Round && ev.Round < p.Until {
				return twice(ev.Device, ev.Round)
			}
		}
	}
	s.exact, s.partitions, s.rounds = exact, partitions, rounds
	return nil
}

// ActionFor returns the event firing for (device, round), if any.
// Partition events match every round in their [Round, Until) range.
// Requires a validated schedule.
func (s *Schedule) ActionFor(device, round int) (Event, bool) {
	if ev, ok := s.exact[[2]int{device, round}]; ok {
		return ev, true
	}
	for _, p := range s.partitions[device] {
		if round >= p.Round && round < p.Until {
			return p, true
		}
	}
	return Event{}, false
}

// RoundHasEvents reports whether any event fires in the given round —
// the decorator's fast-path gate. Requires a validated schedule.
func (s *Schedule) RoundHasEvents(round int) bool {
	if s.rounds[round] {
		return true
	}
	for _, ps := range s.partitions {
		for _, p := range ps {
			if round >= p.Round && round < p.Until {
				return true
			}
		}
	}
	return false
}

// CorruptVec adds the event's deterministic Gaussian noise to vec in
// place. The noise stream is derived from (Seed, device, round) only, so
// the in-process decorator and the TCP worker corrupt bit-identically.
func (s *Schedule) CorruptVec(ev Event, vec []float64) {
	scale := ev.Scale
	if scale <= 0 {
		scale = 1
	}
	rng := randx.NewStream(s.Seed, int64(ev.Device)*1_000_003+int64(ev.Round))
	for i := range vec {
		vec[i] += scale * rng.NormFloat64()
	}
}
