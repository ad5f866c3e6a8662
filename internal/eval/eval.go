// Package eval provides classification evaluation beyond plain accuracy:
// confusion matrices, per-class precision/recall/F1, and macro averages.
// The paper reports only test accuracy; these are the diagnostics a
// practitioner needs when label-skewed federated training fails on
// minority classes.
package eval

import (
	"fmt"
	"io"
	"strings"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
)

// Confusion is a square confusion matrix: Counts[t][p] is the number of
// samples of true class t predicted as class p.
type Confusion struct {
	Classes int
	Counts  [][]int
}

// NewConfusion allocates a zeroed matrix.
func NewConfusion(classes int) *Confusion {
	if classes <= 0 {
		panic("eval: classes must be positive")
	}
	c := &Confusion{Classes: classes, Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Add records one (true, predicted) observation.
func (c *Confusion) Add(truth, pred int) {
	c.Counts[truth][pred]++
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the trace fraction; 0 for an empty matrix.
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < c.Classes; i++ {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(total)
}

// ClassStats holds one class's precision/recall/F1 and support.
type ClassStats struct {
	Class     int
	Precision float64
	Recall    float64
	F1        float64
	Support   int
}

// PerClass computes each class's statistics. Classes with zero support or
// zero predictions get zeros rather than NaNs.
func (c *Confusion) PerClass() []ClassStats {
	stats := make([]ClassStats, c.Classes)
	for k := 0; k < c.Classes; k++ {
		tp := c.Counts[k][k]
		var fp, fn int
		for j := 0; j < c.Classes; j++ {
			if j != k {
				fp += c.Counts[j][k]
				fn += c.Counts[k][j]
			}
		}
		s := ClassStats{Class: k, Support: tp + fn}
		if tp+fp > 0 {
			s.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			s.Recall = float64(tp) / float64(tp+fn)
		}
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
		stats[k] = s
	}
	return stats
}

// MacroF1 returns the unweighted mean F1 over classes with support.
func (c *Confusion) MacroF1() float64 {
	stats := c.PerClass()
	var sum float64
	var n int
	for _, s := range stats {
		if s.Support > 0 {
			sum += s.F1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Evaluate builds the confusion matrix of classifier m at parameters w on
// dataset ds.
func Evaluate(m models.Classifier, w []float64, ds *data.Dataset) *Confusion {
	c := NewConfusion(ds.NumClasses)
	pred := make([]int, ds.N())
	m.PredictBatch(pred, w, ds, 0, len(pred))
	for i, p := range pred {
		c.Add(ds.Y[i], p)
	}
	return c
}

// Report writes a per-class table plus accuracy and macro-F1 summary.
func (c *Confusion) Report(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-7s %10s %10s %10s %10s\n",
		"class", "precision", "recall", "f1", "support"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", 51)); err != nil {
		return err
	}
	for _, s := range c.PerClass() {
		if _, err := fmt.Fprintf(w, "%-7d %10.3f %10.3f %10.3f %10d\n",
			s.Class, s.Precision, s.Recall, s.F1, s.Support); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\naccuracy %.4f, macro-F1 %.4f over %d samples\n",
		c.Accuracy(), c.MacroF1(), c.Total())
	return err
}
