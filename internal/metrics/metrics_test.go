package metrics

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func sampleSeries() *Series {
	s := &Series{Name: "test"}
	s.Append(Point{Round: 1, TrainLoss: 2.0, TestAcc: 0.3, GradNormSq: 4.0})
	s.Append(Point{Round: 2, TrainLoss: 1.0, TestAcc: 0.6, GradNormSq: 2.0})
	s.Append(Point{Round: 3, TrainLoss: 0.5, TestAcc: 0.5, GradNormSq: 1.0})
	return s
}

func TestLastAndBestAcc(t *testing.T) {
	s := sampleSeries()
	last, ok := s.Last()
	if !ok || last.Round != 3 {
		t.Fatal("Last wrong")
	}
	acc, round := s.BestAcc()
	if acc != 0.6 || round != 2 {
		t.Fatalf("BestAcc = %v @ %d", acc, round)
	}
	empty := &Series{}
	if _, ok := empty.Last(); ok {
		t.Fatal("empty Last should be !ok")
	}
	if acc, round := empty.BestAcc(); !math.IsNaN(acc) || round != -1 {
		t.Fatal("empty BestAcc should be NaN/-1")
	}
}

func TestWriteCSV(t *testing.T) {
	s := sampleSeries()
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# series: test\n") {
		t.Fatal("missing series header")
	}
	if !strings.Contains(out, "round,train_loss,test_acc,grad_norm_sq,grad_evals") {
		t.Fatal("missing column header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+3 {
		t.Fatalf("expected 5 lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "1,2,") {
		t.Fatalf("first data row wrong: %q", lines[2])
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty values should render empty")
	}
	sp := Sparkline([]float64{0, 1, 2, 3}, 10)
	if utf8.RuneCountInString(sp) != 4 {
		t.Fatalf("sparkline length = %d, want 4", utf8.RuneCountInString(sp))
	}
	if !strings.HasPrefix(sp, "▁") || !strings.HasSuffix(sp, "█") {
		t.Fatalf("sparkline endpoints wrong: %q", sp)
	}
	// Downsampling to width.
	many := make([]float64, 100)
	for i := range many {
		many[i] = float64(i)
	}
	if got := utf8.RuneCountInString(Sparkline(many, 20)); got != 20 {
		t.Fatalf("downsampled length = %d", got)
	}
	// Constant series should not divide by zero.
	flat := Sparkline([]float64{5, 5, 5}, 5)
	if utf8.RuneCountInString(flat) != 3 {
		t.Fatal("flat sparkline wrong")
	}
	// NaN renders as space.
	withNaN := Sparkline([]float64{1, math.NaN(), 2}, 5)
	if !strings.Contains(withNaN, " ") {
		t.Fatal("NaN should render as space")
	}
}

func TestTable(t *testing.T) {
	var b strings.Builder
	err := Table(&b, []string{"Algorithm", "Acc"}, [][]string{
		{"FedAvg", "84.02%"},
		{"FedProxVR (SARAH)", "84.21%"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "FedProxVR (SARAH)  84.21%") {
		t.Fatalf("table misaligned:\n%s", out)
	}
	if !strings.Contains(out, "---") {
		t.Fatal("missing separator")
	}
	if err := Table(&b, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("ragged rows should error")
	}
}
