// Command paper regenerates the paper's evaluation artifacts — every
// figure and table — writing series CSVs to -outdir and printing summary
// tables.
//
// Examples:
//
//	paper -exp all -scale quick -outdir results/
//	paper -exp fig2 -scale paper -outdir results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/metrics"
	"fedproxvr/internal/plot"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "fig1 | fig2 | fig3 | fig4 | table1 | table2 | timing | straggler | all")
		scale  = flag.String("scale", "quick", "quick | paper")
		outdir = flag.String("outdir", "results", "directory for CSV outputs")
	)
	flag.Parse()

	var sc fedproxvr.Scale
	switch *scale {
	case "quick":
		sc = fedproxvr.QuickScale()
	case "paper":
		sc = fedproxvr.PaperScale()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatal(err)
	}

	runs := map[string]func(fedproxvr.Scale, string) error{
		"fig1":      runFig1,
		"fig2":      runFig2,
		"fig3":      runFig3,
		"fig4":      runFig4,
		"table1":    runTable1,
		"table2":    runTable2,
		"timing":    runTiming,
		"straggler": runStraggler,
	}
	order := []string{"fig1", "fig2", "fig3", "fig4", "table1", "table2", "timing", "straggler"}
	selected := order
	if *exp != "all" {
		if _, ok := runs[*exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
		selected = []string{*exp}
	}
	for _, name := range selected {
		start := time.Now()
		fmt.Printf("== %s (scale=%s) ==\n", name, *scale)
		if err := runs[name](sc, *outdir); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("-- %s done in %s\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func runFig1(sc fedproxvr.Scale, outdir string) error {
	sigma2s, gammas := fedproxvr.Fig1Defaults()
	rows := fedproxvr.RunFig1(sigma2s, gammas)
	f, err := os.Create(filepath.Join(outdir, "fig1.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "sigma2,gamma,beta,mu,theta,tau,fed_factor,objective")
	var tbl [][]string
	for _, r := range rows {
		fmt.Fprintf(f, "%g,%g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
			r.SigmaBar2, r.Gamma, r.Beta, r.Mu, r.Theta, r.Tau, r.Fed, r.Objective)
		tbl = append(tbl, []string{
			fmt.Sprintf("%g", r.SigmaBar2), fmt.Sprintf("%.3g", r.Gamma),
			fmt.Sprintf("%.4g", r.Beta), fmt.Sprintf("%.4g", r.Mu),
			fmt.Sprintf("%.4g", r.Theta), fmt.Sprintf("%.0f", r.Tau),
			fmt.Sprintf("%.4g", r.Fed), fmt.Sprintf("%.4g", r.Objective),
		})
	}
	if err := metrics.Table(os.Stdout, []string{"σ̄²", "γ", "β*", "μ*", "θ", "τ", "Θ", "objective"}, tbl); err != nil {
		return err
	}
	return writeFig1SVG(outdir, rows)
}

// writeFig1SVG renders the four panels of Figure 1 (β*, μ*, θ, Θ vs γ)
// with one line per σ̄² level.
func writeFig1SVG(outdir string, rows []fedproxvr.Fig1Row) error {
	panels := []struct {
		name  string
		value func(fedproxvr.Fig1Row) float64
	}{
		{"beta", func(r fedproxvr.Fig1Row) float64 { return r.Beta }},
		{"mu", func(r fedproxvr.Fig1Row) float64 { return r.Mu }},
		{"theta", func(r fedproxvr.Fig1Row) float64 { return r.Theta }},
		{"fed_factor", func(r fedproxvr.Fig1Row) float64 { return r.Fed }},
	}
	for _, panel := range panels {
		chart := &plot.Chart{
			Title:  "Fig 1: optimal " + panel.name + " vs gamma",
			XLabel: "gamma = d_cmp/d_com",
			YLabel: panel.name,
			LogX:   true,
		}
		lines := map[float64]*plot.Line{}
		var order []float64
		for _, r := range rows {
			l, ok := lines[r.SigmaBar2]
			if !ok {
				l = &plot.Line{Name: fmt.Sprintf("sigma2=%g", r.SigmaBar2)}
				lines[r.SigmaBar2] = l
				order = append(order, r.SigmaBar2)
			}
			l.X = append(l.X, r.Gamma)
			l.Y = append(l.Y, panel.value(r))
		}
		for _, s2 := range order {
			chart.Lines = append(chart.Lines, *lines[s2])
		}
		f, err := os.Create(filepath.Join(outdir, "fig1_"+panel.name+".svg"))
		if err != nil {
			return err
		}
		if err := chart.RenderSVG(f); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}
	return nil
}

// writeSeriesSVG renders loss (and accuracy, when present) charts for a
// figure's series.
func writeSeriesSVG(outdir, base, title string, series []*fedproxvr.Series) error {
	lossChart := &plot.Chart{Title: title + " — training loss", XLabel: "global round", YLabel: "loss"}
	accChart := &plot.Chart{Title: title + " — test accuracy", XLabel: "global round", YLabel: "accuracy"}
	hasAcc := false
	for _, s := range series {
		rounds := make([]int, len(s.Points))
		for i, p := range s.Points {
			rounds[i] = p.Round
		}
		lossChart.Lines = append(lossChart.Lines, plot.FromSeries(s.Name, rounds, s.Losses()))
		accs := s.Accuracies()
		for _, a := range accs {
			if a == a { // not NaN
				hasAcc = true
				break
			}
		}
		accChart.Lines = append(accChart.Lines, plot.FromSeries(s.Name, rounds, accs))
	}
	f, err := os.Create(filepath.Join(outdir, base+"_loss.svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := lossChart.RenderSVG(f); err != nil {
		return err
	}
	if !hasAcc {
		return nil
	}
	g, err := os.Create(filepath.Join(outdir, base+"_acc.svg"))
	if err != nil {
		return err
	}
	defer g.Close()
	return accChart.RenderSVG(g)
}

func writeSeriesCSV(outdir, file string, series []*fedproxvr.Series) error {
	f, err := os.Create(filepath.Join(outdir, file))
	if err != nil {
		return err
	}
	defer f.Close()
	for _, s := range series {
		if err := s.WriteCSV(f); err != nil {
			return err
		}
	}
	return nil
}

func summarize(series []*fedproxvr.Series) {
	for _, s := range series {
		last, _ := s.Last()
		best, _ := s.BestAcc()
		fmt.Printf("%-55s loss %.4f → %.4f | best acc %.2f%% | %s\n",
			s.Name, s.Points[0].TrainLoss, last.TrainLoss, best*100,
			metrics.Sparkline(s.Losses(), 30))
	}
}

func runFig2(sc fedproxvr.Scale, outdir string) error {
	results, err := fedproxvr.RunFig2(sc)
	if err != nil {
		return err
	}
	series := make([]*fedproxvr.Series, len(results))
	for i, r := range results {
		series[i] = r.Series
	}
	summarize(series)
	if err := writeSeriesSVG(outdir, "fig2", "Fig 2: convex task (Fashion images)", series); err != nil {
		return err
	}
	return writeSeriesCSV(outdir, "fig2.csv", series)
}

func runFig3(sc fedproxvr.Scale, outdir string) error {
	results, err := fedproxvr.RunFig3(sc)
	if err != nil {
		return err
	}
	series := make([]*fedproxvr.Series, len(results))
	for i, r := range results {
		series[i] = r.Series
	}
	summarize(series)
	if err := writeSeriesSVG(outdir, "fig3", "Fig 3: non-convex CNN (digit images)", series); err != nil {
		return err
	}
	return writeSeriesCSV(outdir, "fig3.csv", series)
}

func runFig4(sc fedproxvr.Scale, outdir string) error {
	series, err := fedproxvr.RunFig4(sc)
	if err != nil {
		return err
	}
	summarize(series)
	if err := writeSeriesSVG(outdir, "fig4", "Fig 4: effect of proximal penalty mu (Synthetic)", series); err != nil {
		return err
	}
	return writeSeriesCSV(outdir, "fig4.csv", series)
}

func runTable(sc fedproxvr.Scale, outdir, file string,
	run func(fedproxvr.Scale) ([]fedproxvr.TableResult, error)) error {
	results, err := run(sc)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, fedproxvr.TableRow(r.Best))
	}
	if err := metrics.Table(os.Stdout, fedproxvr.TableHeaders(), rows); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outdir, file))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, strings.Join(fedproxvr.TableHeaders(), ","))
	for _, r := range results {
		fmt.Fprintln(f, strings.Join(fedproxvr.TableRow(r.Best), ","))
	}
	return nil
}

func runTiming(sc fedproxvr.Scale, outdir string) error {
	rows, err := fedproxvr.RunTimingStudy(sc)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outdir, "timing.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "fleet,gamma,tau,rounds,time_to_target_s")
	var tbl [][]string
	for _, r := range rows {
		fmt.Fprintf(f, "%s,%g,%d,%d,%.4f\n", r.Fleet, r.Gamma, r.Tau, r.Rounds, r.TimeToTarget)
		tbl = append(tbl, []string{
			r.Fleet, fmt.Sprintf("%.3g", r.Gamma), fmt.Sprintf("%d", r.Tau),
			fmt.Sprintf("%d", r.Rounds), fmt.Sprintf("%.2fs", r.TimeToTarget),
		})
	}
	return metrics.Table(os.Stdout, []string{"fleet", "γ", "τ", "rounds", "time-to-target"}, tbl)
}

func runStraggler(sc fedproxvr.Scale, outdir string) error {
	rows, err := fedproxvr.RunStragglerStudy(sc)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outdir, "straggler.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "runtime,spread,time_to_target_s")
	var tbl [][]string
	for _, r := range rows {
		fmt.Fprintf(f, "%s,%g,%.4f\n", r.Runtime, r.Spread, r.TimeToTarget)
		tbl = append(tbl, []string{
			r.Runtime, fmt.Sprintf("%g", r.Spread), fmt.Sprintf("%.2fs", r.TimeToTarget),
		})
	}
	return metrics.Table(os.Stdout, []string{"runtime", "spread", "time-to-target"}, tbl)
}

func runTable1(sc fedproxvr.Scale, outdir string) error {
	return runTable(sc, outdir, "table1.csv", fedproxvr.RunTable1)
}

func runTable2(sc fedproxvr.Scale, outdir string) error {
	return runTable(sc, outdir, "table2.csv", fedproxvr.RunTable2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}
