package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestParseValidSchedule(t *testing.T) {
	js := `{
		"seed": 7,
		"events": [
			{"device": 0, "round": 1, "kind": "crash"},
			{"device": 1, "round": 2, "kind": "flake"},
			{"device": 2, "round": 3, "kind": "delay", "delay_ms": 12.5},
			{"device": 0, "round": 4, "kind": "corrupt", "scale": 0.5},
			{"device": 3, "round": 2, "kind": "partition", "until": 5}
		]
	}`
	s, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Events) != 5 {
		t.Fatalf("parsed seed %d with %d events", s.Seed, len(s.Events))
	}
	ev, ok := s.ActionFor(2, 3)
	if !ok || ev.Kind != Delay || ev.Delay() != 12500*time.Microsecond {
		t.Fatalf("ActionFor(2,3) = %+v, %v", ev, ok)
	}
	// Partition matches every round in [Round, Until).
	for round := 2; round < 5; round++ {
		ev, ok := s.ActionFor(3, round)
		if !ok || ev.Kind != Partition {
			t.Fatalf("ActionFor(3,%d) = %+v, %v — partition should cover it", round, ev, ok)
		}
	}
	if _, ok := s.ActionFor(3, 5); ok {
		t.Fatal("partition should end at until")
	}
	if _, ok := s.ActionFor(1, 1); ok {
		t.Fatal("no event scheduled for device 1 round 1")
	}
	for round := 1; round <= 4; round++ {
		if !s.RoundHasEvents(round) {
			t.Fatalf("round %d has events", round)
		}
	}
	if s.RoundHasEvents(5) || s.RoundHasEvents(6) {
		t.Fatal("rounds 5+ are quiet")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	js := `{"seed": 1, "events": [{"device": 0, "round": 1, "kind": "crash", "typo": 3}]}`
	if _, err := Parse(strings.NewReader(js)); err == nil {
		t.Fatal("unknown field should be rejected")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]Schedule{
		"negative device": {Events: []Event{{Device: -1, Round: 1, Kind: Crash}}},
		"round zero":      {Events: []Event{{Device: 0, Round: 0, Kind: Crash}}},
		"unknown kind":    {Events: []Event{{Device: 0, Round: 1, Kind: "meltdown"}}},
		"delay without delay_ms": {Events: []Event{
			{Device: 0, Round: 1, Kind: Delay}}},
		"partition without until": {Events: []Event{
			{Device: 0, Round: 3, Kind: Partition, Until: 3}}},
		"negative scale": {Events: []Event{
			{Device: 0, Round: 1, Kind: Corrupt, Scale: -0.1}}},
		"duplicate claim": {Events: []Event{
			{Device: 2, Round: 4, Kind: Crash},
			{Device: 2, Round: 4, Kind: Flake}}},
		"partition overlap": {Events: []Event{
			{Device: 2, Round: 3, Kind: Partition, Until: 6},
			{Device: 2, Round: 5, Kind: Crash}}},
		"event inside a later partition": {Events: []Event{
			{Device: 2, Round: 5, Kind: Crash},
			{Device: 2, Round: 3, Kind: Partition, Until: 6}}},
		"overlapping partitions": {Events: []Event{
			{Device: 2, Round: 3, Kind: Partition, Until: 6},
			{Device: 2, Round: 5, Kind: Partition, Until: 9}}},
	}
	for name, s := range cases {
		s := s
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s.Events)
		}
	}
}

func TestCorruptVecDeterministic(t *testing.T) {
	s := &Schedule{Seed: 99}
	ev := Event{Device: 3, Round: 5, Kind: Corrupt, Scale: 0.25}
	base := []float64{1, 2, 3, 4}
	a := append([]float64(nil), base...)
	b := append([]float64(nil), base...)
	s.CorruptVec(ev, a)
	s.CorruptVec(ev, b)
	changed := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corruption is not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != base[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("corruption left the vector untouched")
	}
	// A different (device, round) draws a different noise stream.
	c := append([]float64(nil), base...)
	s.CorruptVec(Event{Device: 3, Round: 6, Kind: Corrupt, Scale: 0.25}, c)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different rounds produced identical corruption noise")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	g := GenConfig{
		Seed: 5, Devices: 8, Rounds: 30,
		PCrash: 0.05, PFlake: 0.05, PDelay: 0.05, PCorrupt: 0.05, PPartition: 0.03,
	}
	s1, err := Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Events) == 0 {
		t.Fatal("generation produced no events at these probabilities")
	}
	if len(s1.Events) != len(s2.Events) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(s1.Events), len(s2.Events))
	}
	for i := range s1.Events {
		if s1.Events[i] != s2.Events[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, s1.Events[i], s2.Events[i])
		}
	}
	kinds := map[Kind]bool{}
	for _, ev := range s1.Events {
		kinds[ev.Kind] = true
	}
	if len(kinds) < 3 {
		t.Fatalf("generation too homogeneous: kinds %v", kinds)
	}
	// A different seed yields a different plan.
	g.Seed = 6
	s3, err := Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3.Events) == len(s1.Events) {
		same := true
		for i := range s3.Events {
			if s3.Events[i] != s1.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

func TestGenerateRejectsEmptyUniverse(t *testing.T) {
	if _, err := Generate(GenConfig{Seed: 1, Devices: 0, Rounds: 5}); err == nil {
		t.Fatal("zero devices should be rejected")
	}
	if _, err := Generate(GenConfig{Seed: 1, Devices: 5, Rounds: 0}); err == nil {
		t.Fatal("zero rounds should be rejected")
	}
}
