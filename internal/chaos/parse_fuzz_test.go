package chaos

import (
	"strings"
	"testing"
)

// TestParseUnboundedPartition: a partition that never ends is one interval,
// so parsing it returns at once and every round it covers answers.
func TestParseUnboundedPartition(t *testing.T) {
	js := `{"events":[{"device":0,"round":1,"kind":"partition","until":9223372036854775807}]}`
	s, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range []int{1, 1 << 62} {
		if ev, ok := s.ActionFor(0, round); !ok || ev.Kind != Partition {
			t.Fatalf("ActionFor(0, %d) = %+v, %v — the partition covers it", round, ev, ok)
		}
		if !s.RoundHasEvents(round) {
			t.Fatalf("RoundHasEvents(%d) = false inside the partition", round)
		}
	}
	if _, ok := s.ActionFor(1, 2); ok {
		t.Fatal("device 1 has no event")
	}
}

// FuzzChaosParse feeds Parse arbitrary bytes: a schedule is read from a
// file a user wrote, so any input must parse or return an error, never
// panic. For every event of a schedule that parses, ActionFor finds an
// event of its device at its first and last round, and RoundHasEvents
// agrees with ActionFor there and one round past the end.
//
// `go test` replays the seeds; `make fuzz` explores from them.
func FuzzChaosParse(f *testing.F) {
	f.Add(`{"seed":7,"events":[{"device":0,"round":1,"kind":"crash"},{"device":2,"round":3,"kind":"delay","delay_ms":12.5},{"device":3,"round":2,"kind":"partition","until":5}]}`)
	f.Add(`{"events":[{"device":0,"round":1,"kind":"partition","until":9223372036854775807}]}`)
	f.Add(`{"events":[{"device":1,"round":2,"kind":"partition","until":4},{"device":1,"round":4,"kind":"corrupt","scale":0.5}]}`)
	f.Add(`{"events":[{"device":2,"round":3,"kind":"partition","until":6},{"device":2,"round":5,"kind":"crash"}]}`)
	f.Add(`{"events":[{"device":0,"round":9223372036854775807,"kind":"flake"}]}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, js string) {
		s, err := Parse(strings.NewReader(js))
		if (s == nil) == (err == nil) {
			t.Fatalf("Parse returned schedule %v and error %v", s, err)
		}
		if err != nil {
			return
		}
		for _, ev := range s.Events {
			last := ev.Round
			if ev.Kind == Partition {
				last = ev.Until - 1
			}
			for _, round := range []int{ev.Round, last, last + 1} {
				got, ok := s.ActionFor(ev.Device, round)
				if round != last+1 && (!ok || got.Device != ev.Device) {
					t.Fatalf("event %+v: ActionFor(%d, %d) = %+v, %v", ev, ev.Device, round, got, ok)
				}
				if ok && !s.RoundHasEvents(round) {
					t.Fatalf("event %+v: ActionFor fires in round %d but RoundHasEvents says quiet", ev, round)
				}
			}
		}
	})
}
