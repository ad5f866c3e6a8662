package telemetry

import (
	"fmt"
	"math"
)

// Rule names, in evaluation (and exposition) order.
const (
	RuleLossRising     = "loss_rising"
	RuleGradNormStall  = "grad_norm_stall"
	RuleQuorumMiss     = "quorum_miss"
	RuleStragglerRatio = "straggler_ratio"
	RuleNaNInf         = "nan_inf"
)

// RuleNames lists every rule the engine evaluates, in its fixed order.
// Exposed so the Prometheus writer and tests enumerate the same set.
var RuleNames = []string{
	RuleLossRising, RuleGradNormStall, RuleQuorumMiss, RuleStragglerRatio, RuleNaNInf,
}

// RuleConfig declares the per-job alert rules. The zero value enables the
// loss-rising check with its default and leaves the threshold-based rules
// (grad stall, quorum, straggler ratio) off until their thresholds are
// set. The nan_inf rule is always on: it fires the moment the aggregated
// model or a measured loss goes non-finite.
type RuleConfig struct {
	// LossRisingK fires loss_rising when the measured training loss rises
	// strictly for K consecutive measured rounds (default 3; negative
	// disables). A divergent step size — the regime the paper's Remark 3
	// η bound guards against — trips this within a handful of evals.
	LossRisingK int

	// GradStallEps arms grad_norm_stall: fire when ‖∇F̄(w)‖² has stayed at
	// or above eps without meaningful decrease for GradStallK consecutive
	// measured rounds. eps is the eq. (12) stationarity target ε; 0 leaves
	// the rule off.
	GradStallEps float64
	// GradStallK is the stall streak length (default 5).
	GradStallK int

	// QuorumMin fires quorum_miss when a round's participant count falls
	// below this floor for quorumK consecutive rounds. 0 leaves the rule
	// off (jobs wire their Spec's MinParticipants here).
	QuorumMin int

	// StragglerRatio fires straggler_ratio when stragglers make up at
	// least this fraction of the round's cohort for stragglerK consecutive
	// rounds. 0 leaves the rule off.
	StragglerRatio float64
}

// The quorum_miss and straggler_ratio streak lengths.
const (
	quorumK    = 3
	stragglerK = 3
)

func (c RuleConfig) withDefaults() RuleConfig {
	if c.LossRisingK == 0 {
		c.LossRisingK = 3
	}
	if c.GradStallK <= 0 {
		c.GradStallK = 5
	}
	return c
}

// ruleEngine is the per-job alert state machine: streak counters plus a
// firing latch per rule. It is not safe for concurrent use; the JobStore
// serializes calls under its mutex.
type ruleEngine struct {
	cfg RuleConfig

	firing map[string]bool

	lossStreak int
	lastLoss   float64 // last measured finite loss; NaN before first eval

	stallStreak int
	lastGrad    float64 // last measured grad-norm²; NaN before first eval

	quorumStreak    int
	stragglerStreak int
}

func newRuleEngine(cfg RuleConfig) *ruleEngine {
	return &ruleEngine{
		cfg:      cfg.withDefaults(),
		firing:   make(map[string]bool, len(RuleNames)),
		lastLoss: nan(),
		lastGrad: nan(),
	}
}

// transition describes one rule changing state this round.
type transition struct {
	Rule      string
	Firing    bool // true = fired this round, false = cleared
	Severity  string
	Value     float64
	Threshold float64
	Message   string
}

// severity maps a rule to its alert class: model-is-diverging rules are
// critical, fleet-health rules are warnings.
func severity(rule string) string {
	switch rule {
	case RuleLossRising, RuleNaNInf:
		return "critical"
	default:
		return "warning"
	}
}

// eval feeds one round's sample through every rule and returns the state
// transitions (fires and clears) it caused, in fixed rule order.
func (re *ruleEngine) eval(s *Sample) []transition {
	var out []transition
	emit := func(rule string, firing bool, value, threshold float64, msg string) {
		if re.firing[rule] == firing {
			return
		}
		re.firing[rule] = firing
		out = append(out, transition{
			Rule: rule, Firing: firing, Severity: severity(rule),
			Value: value, Threshold: threshold, Message: msg,
		})
	}

	// loss_rising — strictly increasing measured loss for K evals.
	if re.cfg.LossRisingK > 0 {
		if loss := s.TrainLoss; !math.IsNaN(loss) && !math.IsInf(loss, 0) {
			switch {
			case math.IsNaN(re.lastLoss):
				// First measurement: nothing to compare.
			case loss > re.lastLoss:
				re.lossStreak++
			default:
				re.lossStreak = 0
				emit(RuleLossRising, false, loss, float64(re.cfg.LossRisingK),
					fmt.Sprintf("train loss decreased to %g at round %d", loss, s.Round))
			}
			re.lastLoss = loss
			if re.lossStreak >= re.cfg.LossRisingK {
				emit(RuleLossRising, true, loss, float64(re.cfg.LossRisingK),
					fmt.Sprintf("train loss rose %d consecutive evals (now %g) — step size likely violates the convergence bound", re.lossStreak, loss))
			}
		}
	}

	// grad_norm_stall — ‖∇F̄‖² pinned at or above ε without meaningful
	// decrease for K evals. "Meaningful" is a 1% drop; anything less keeps
	// the streak alive.
	if eps := re.cfg.GradStallEps; eps > 0 {
		if gn := s.GradNormSq; !math.IsNaN(gn) && !math.IsInf(gn, 0) {
			if gn >= eps && (math.IsNaN(re.lastGrad) || gn >= 0.99*re.lastGrad) {
				re.stallStreak++
			} else {
				re.stallStreak = 0
				emit(RuleGradNormStall, false, gn, eps,
					fmt.Sprintf("grad norm² moving again (%g) at round %d", gn, s.Round))
			}
			re.lastGrad = gn
			if re.stallStreak >= re.cfg.GradStallK {
				emit(RuleGradNormStall, true, gn, eps,
					fmt.Sprintf("grad norm² stalled at %g ≥ ε=%g for %d evals", gn, eps, re.stallStreak))
			}
		}
	}

	// quorum_miss — participants below the job's floor for K rounds.
	if min := re.cfg.QuorumMin; min > 0 {
		if s.Participants < min {
			re.quorumStreak++
		} else {
			re.quorumStreak = 0
			emit(RuleQuorumMiss, false, float64(s.Participants), float64(min),
				fmt.Sprintf("quorum restored: %d participants at round %d", s.Participants, s.Round))
		}
		if re.quorumStreak >= quorumK {
			emit(RuleQuorumMiss, true, float64(s.Participants), float64(min),
				fmt.Sprintf("only %d/%d participants for %d consecutive rounds", s.Participants, min, re.quorumStreak))
		}
	}

	// straggler_ratio — stragglers dominating the cohort for K rounds.
	if ratio := re.cfg.StragglerRatio; ratio > 0 {
		cohort := s.Participants + s.Failed + s.Stragglers
		var r float64
		if cohort > 0 {
			r = float64(s.Stragglers) / float64(cohort)
		}
		if cohort > 0 && r >= ratio {
			re.stragglerStreak++
		} else {
			re.stragglerStreak = 0
			emit(RuleStragglerRatio, false, r, ratio,
				fmt.Sprintf("straggler ratio back to %.2f at round %d", r, s.Round))
		}
		if re.stragglerStreak >= stragglerK {
			emit(RuleStragglerRatio, true, r, ratio,
				fmt.Sprintf("straggler ratio %.2f ≥ %.2f for %d rounds — deadline or fleet profile misconfigured", r, ratio, re.stragglerStreak))
		}
	}

	// nan_inf — immediate, no streak: a poisoned model never un-poisons by
	// itself, and a non-finite loss means the divergence already happened.
	// A NaN TrainLoss means "unmeasured this round", so only a measured
	// non-finite value counts: an Inf loss or grad norm, or the probe's
	// model scan finding NaN/Inf coordinates.
	bad := s.NonFinite || math.IsInf(s.TrainLoss, 0) || math.IsInf(s.GradNormSq, 0)
	if bad {
		emit(RuleNaNInf, true, nan(), 0,
			fmt.Sprintf("non-finite model or loss at round %d", s.Round))
	} else if s.Participants > 0 || !math.IsNaN(s.TrainLoss) {
		emit(RuleNaNInf, false, nan(), 0,
			fmt.Sprintf("model finite again at round %d", s.Round))
	}

	return out
}

// activeRules returns the currently-firing rule names in fixed order.
func (re *ruleEngine) activeRules() []string {
	var out []string
	for _, r := range RuleNames {
		if re.firing[r] {
			out = append(out, r)
		}
	}
	return out
}
