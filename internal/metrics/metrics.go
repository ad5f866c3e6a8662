// Package metrics records per-round training series for federated runs and
// renders them as CSV (for plotting) or compact ASCII (for terminals). It
// also provides the summary reductions the paper's tables use
// (best accuracy, rounds-to-target).
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one global round's measurements.
type Point struct {
	Round        int
	TrainLoss    float64
	TestAcc      float64 // fraction in [0,1]; NaN if no test set
	GradNormSq   float64 // ‖∇F̄(w̄^(s))‖², the gap of eq. (12); NaN if unmeasured (no in-process devices)
	GradEvals    int64   // cumulative gradient evaluations across devices
	Participants int     // devices that reported this round (0 for the round-0 point)
	Failed       int     // selected devices whose round failed (crash, network fault)
}

// Series is a named sequence of round measurements for one algorithm run.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point.
func (s *Series) Append(p Point) { s.Points = append(s.Points, p) }

// Last returns the final point; ok is false if the series is empty.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// BestAcc returns the maximum test accuracy and the round it occurred.
func (s *Series) BestAcc() (acc float64, round int) {
	acc = math.Inf(-1)
	round = -1
	for _, p := range s.Points {
		if !math.IsNaN(p.TestAcc) && p.TestAcc > acc {
			acc, round = p.TestAcc, p.Round
		}
	}
	if round == -1 {
		return math.NaN(), -1
	}
	return acc, round
}

// TotalFailed sums the per-round failure counts over the measured points
// (with EvalEvery > 1 only evaluated rounds contribute).
func (s *Series) TotalFailed() int {
	var n int
	for _, p := range s.Points {
		n += p.Failed
	}
	return n
}

// WriteCSV emits
// "round,train_loss,test_acc,grad_norm_sq,grad_evals,participants,failed"
// rows.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# series: %s\n", s.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "round,train_loss,test_acc,grad_norm_sq,grad_evals,participants,failed"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%d,%.8g,%.6g,%.8g,%d,%d,%d\n",
			p.Round, p.TrainLoss, p.TestAcc, p.GradNormSq, p.GradEvals, p.Participants, p.Failed); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders values as a one-line unicode sparkline of the given
// width (downsampling by striding). Empty input yields an empty string.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	if len(values) > width {
		stride := float64(len(values)) / float64(width)
		ds := make([]float64, width)
		for i := range ds {
			ds[i] = values[int(float64(i)*stride)]
		}
		values = ds
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", len(values))
	}
	var b strings.Builder
	for _, v := range values {
		if math.IsNaN(v) {
			b.WriteRune(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}

// Losses extracts the training-loss column.
func (s *Series) Losses() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.TrainLoss
	}
	return out
}

// Accuracies extracts the test-accuracy column.
func (s *Series) Accuracies() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.TestAcc
	}
	return out
}

// Table renders an aligned plain-text table. Headers and all rows must have
// equal lengths.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		if len(r) != len(headers) {
			return fmt.Errorf("metrics: row has %d cells, want %d", len(r), len(headers))
		}
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(headers); err != nil {
		return err
	}
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, r := range rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}
