package telemetry

import (
	"math"
	"testing"
)

// mkSample builds a minimal sample for rule tests: unmeasured fields NaN,
// participants defaulted to a healthy cohort.
func mkSample(round int, mut func(*Sample)) *Sample {
	s := &Sample{
		Round: round, Participants: 4,
		SimSeconds: nan(),
		LatP50:     nan(), LatP90: nan(), LatP99: nan(),
		TrainLoss: nan(), TestAcc: nan(), GradNormSq: nan(),
		DriftMean: nan(), DriftMax: nan(), UpdateVar: nan(), UpdateNorm: nan(),
	}
	if mut != nil {
		mut(s)
	}
	return s
}

// TestRulesFireAndClear drives every rule through its full fire → clear
// transition cycle and asserts the exact transitions emitted.
func TestRulesFireAndClear(t *testing.T) {
	type step struct {
		mut  func(*Sample)
		want []transition // nil = no transitions expected
	}
	cases := []struct {
		name  string
		cfg   RuleConfig
		steps []step
	}{
		{
			name: "loss_rising fires after K strict rises and clears on decrease",
			cfg:  RuleConfig{LossRisingK: 3},
			steps: []step{
				{mut: func(s *Sample) { s.TrainLoss = 1.0 }},
				{mut: func(s *Sample) { s.TrainLoss = 1.1 }}, // streak 1
				{mut: func(s *Sample) { s.TrainLoss = 1.2 }}, // streak 2
				{mut: func(s *Sample) { s.TrainLoss = 1.3 }, // streak 3 → fire
					want: []transition{{Rule: RuleLossRising, Firing: true, Severity: "critical"}}},
				{mut: func(s *Sample) { s.TrainLoss = 1.4 }}, // still firing, no transition
				{mut: nil}, // unmeasured round: no change
				{mut: func(s *Sample) { s.TrainLoss = 0.9 }, // decrease → clear
					want: []transition{{Rule: RuleLossRising, Firing: false, Severity: "critical"}}},
				{mut: func(s *Sample) { s.TrainLoss = 1.0 }}, // streak restarts at 1
			},
		},
		{
			name: "loss_rising streak broken by flat loss",
			cfg:  RuleConfig{LossRisingK: 2},
			steps: []step{
				{mut: func(s *Sample) { s.TrainLoss = 1.0 }},
				{mut: func(s *Sample) { s.TrainLoss = 1.1 }},
				{mut: func(s *Sample) { s.TrainLoss = 1.1 }}, // flat resets streak (no clear: never fired)
				{mut: func(s *Sample) { s.TrainLoss = 1.2 }},
				{mut: func(s *Sample) { s.TrainLoss = 1.3 },
					want: []transition{{Rule: RuleLossRising, Firing: true, Severity: "critical"}}},
			},
		},
		{
			name: "grad_norm_stall fires on plateau above eps, clears on drop",
			cfg:  RuleConfig{GradStallEps: 0.5, GradStallK: 3},
			steps: []step{
				{mut: func(s *Sample) { s.GradNormSq = 2.0 }},  // streak 1
				{mut: func(s *Sample) { s.GradNormSq = 1.99 }}, // <1% drop, streak 2
				{mut: func(s *Sample) { s.GradNormSq = 1.99 }, // streak 3 → fire
					want: []transition{{Rule: RuleGradNormStall, Firing: true, Severity: "warning"}}},
				{mut: func(s *Sample) { s.GradNormSq = 0.4 }, // below eps → clear
					want: []transition{{Rule: RuleGradNormStall, Firing: false, Severity: "warning"}}},
			},
		},
		{
			name: "grad_norm_stall streak broken by meaningful decrease",
			cfg:  RuleConfig{GradStallEps: 0.5, GradStallK: 2},
			steps: []step{
				{mut: func(s *Sample) { s.GradNormSq = 2.0 }},
				{mut: func(s *Sample) { s.GradNormSq = 1.0 }}, // 50% drop resets (still above eps)
				{mut: func(s *Sample) { s.GradNormSq = 1.0 }},
				{mut: func(s *Sample) { s.GradNormSq = 1.0 },
					want: []transition{{Rule: RuleGradNormStall, Firing: true, Severity: "warning"}}},
			},
		},
		{
			name: "quorum_miss fires after K misses and clears on restore",
			cfg:  RuleConfig{QuorumMin: 3},
			steps: []step{
				{mut: func(s *Sample) { s.Participants = 3 }},
				{mut: func(s *Sample) { s.Participants = 2 }}, // miss 1
				{mut: func(s *Sample) { s.Participants = 1 }}, // miss 2
				{mut: func(s *Sample) { s.Participants = 2 }, // miss 3 → fire
					want: []transition{{Rule: RuleQuorumMiss, Firing: true, Severity: "warning"}}},
				{mut: func(s *Sample) { s.Participants = 2 }}, // still missing, still firing
				{mut: func(s *Sample) { s.Participants = 4 }, // restored → clear
					want: []transition{{Rule: RuleQuorumMiss, Firing: false, Severity: "warning"}}},
			},
		},
		{
			name: "straggler_ratio fires on sustained straggler share, clears when healthy",
			cfg:  RuleConfig{StragglerRatio: 0.5},
			steps: []step{
				{mut: func(s *Sample) { s.Participants = 2; s.Stragglers = 2 }}, // ratio 0.5, streak 1
				{mut: func(s *Sample) { s.Participants = 1; s.Stragglers = 3 }}, // ratio 0.75, streak 2
				{mut: func(s *Sample) { s.Participants = 2; s.Stragglers = 2 }, // streak 3 → fire
					want: []transition{{Rule: RuleStragglerRatio, Firing: true, Severity: "warning"}}},
				{mut: func(s *Sample) { s.Participants = 4; s.Stragglers = 0 }, // → clear
					want: []transition{{Rule: RuleStragglerRatio, Firing: false, Severity: "warning"}}},
			},
		},
		{
			name: "nan_inf fires immediately and clears when finite again",
			cfg:  RuleConfig{},
			steps: []step{
				{mut: func(s *Sample) { s.TrainLoss = 1.0 }},
				{mut: func(s *Sample) { s.NonFinite = true }, // poisoned model → fire
					want: []transition{{Rule: RuleNaNInf, Firing: true, Severity: "critical"}}},
				{mut: func(s *Sample) { s.TrainLoss = 2.0 }, // finite again → clear
					want: []transition{{Rule: RuleNaNInf, Firing: false, Severity: "critical"}}},
				{mut: func(s *Sample) { s.TrainLoss = math.Inf(1) }, // Inf loss → fire
					want: []transition{{Rule: RuleNaNInf, Firing: true, Severity: "critical"}}},
			},
		},
		{
			name: "disabled rules never fire",
			cfg: RuleConfig{
				LossRisingK: -1, // quorum/stall/straggler off by zero thresholds
			},
			steps: []step{
				{mut: func(s *Sample) { s.TrainLoss = 1 }},
				{mut: func(s *Sample) { s.TrainLoss = 2; s.Participants = 0 }},
				{mut: func(s *Sample) { s.TrainLoss = 3; s.Participants = 0 }},
				{mut: func(s *Sample) { s.TrainLoss = 4; s.Participants = 0 }},
				{mut: func(s *Sample) { s.TrainLoss = 5; s.Participants = 0 }},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			re := newRuleEngine(tc.cfg)
			for i, st := range tc.steps {
				got := re.eval(mkSample(i+1, st.mut))
				if len(got) != len(st.want) {
					t.Fatalf("step %d: got %d transitions %+v, want %d", i, len(got), got, len(st.want))
				}
				for j, w := range st.want {
					g := got[j]
					if g.Rule != w.Rule || g.Firing != w.Firing || g.Severity != w.Severity {
						t.Fatalf("step %d transition %d: got {%s firing=%v sev=%s}, want {%s firing=%v sev=%s}",
							i, j, g.Rule, g.Firing, g.Severity, w.Rule, w.Firing, w.Severity)
					}
					if g.Message == "" {
						t.Fatalf("step %d transition %d: empty message", i, j)
					}
				}
			}
		})
	}
}

// TestActiveRulesOrder: activeRules reports firing rules in the fixed
// RuleNames order regardless of fire order.
func TestActiveRulesOrder(t *testing.T) {
	re := newRuleEngine(RuleConfig{LossRisingK: 1, QuorumMin: 5})
	// Fire quorum first (three misses at a flat loss), then loss.
	for r := 1; r <= quorumK; r++ {
		re.eval(mkSample(r, func(s *Sample) { s.Participants = 1; s.TrainLoss = 1 }))
	}
	if got := re.activeRules(); len(got) != 1 || got[0] != RuleQuorumMiss {
		t.Fatalf("active = %v, want [quorum_miss]", got)
	}
	re.eval(mkSample(quorumK+1, func(s *Sample) { s.Participants = 1; s.TrainLoss = 2 }))
	got := re.activeRules()
	if len(got) != 2 || got[0] != RuleLossRising || got[1] != RuleQuorumMiss {
		t.Fatalf("active = %v, want [loss_rising quorum_miss]", got)
	}
}
