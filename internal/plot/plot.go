// Package plot renders line charts as standalone SVG using only the
// standard library — enough to turn the reproduction's metric series into
// actual figures (results/figN.svg) without external plotting stacks.
// Every chart is drawn on one 720 × 440 canvas with a linear y axis; the x
// axis may be log₁₀ (Fig 1's γ sweep).
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Line is one named series.
type Line struct {
	Name string
	X, Y []float64 // equal lengths; NaN Y values break the polyline
}

// Chart is a set of lines with axes and a legend, drawn 720 × 440 pixels
// on a linear y axis.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Lines  []Line
	LogX   bool // log₁₀ x axis (e.g. the γ sweep)
}

// palette of visually distinct stroke colors (cycled).
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
	"#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
}

const (
	chartWidth   = 720
	chartHeight  = 440
	marginLeft   = 64.0
	marginRight  = 16.0
	marginTop    = 36.0
	marginBottom = 48.0
	legendRow    = 16.0
)

// RenderSVG writes the chart. It returns an error for empty charts or
// mismatched line lengths.
func (c *Chart) RenderSVG(w io.Writer) error {
	if len(c.Lines) == 0 {
		return fmt.Errorf("plot: chart has no lines")
	}
	xmin, xmax, ymin, ymax := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for _, l := range c.Lines {
		if len(l.X) != len(l.Y) {
			return fmt.Errorf("plot: line %q has %d x but %d y", l.Name, len(l.X), len(l.Y))
		}
		for i := range l.X {
			x, y := l.X[i], l.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if c.LogX && x <= 0 {
				continue
			}
			if c.LogX {
				x = math.Log10(x)
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if math.IsInf(xmin, 1) {
		return fmt.Errorf("plot: no finite points")
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// Pad the y range slightly so lines don't hug the frame.
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad

	plotW := float64(chartWidth) - marginLeft - marginRight
	plotH := float64(chartHeight) - marginTop - marginBottom
	sx := func(x float64) float64 {
		if c.LogX {
			x = math.Log10(x)
		}
		return marginLeft + (x-xmin)/(xmax-xmin)*plotW
	}
	sy := func(y float64) float64 {
		return marginTop + (1-(y-ymin)/(ymax-ymin))*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", chartWidth, chartHeight)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", chartWidth, chartHeight)
	// Frame.
	fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#444"/>`+"\n",
		marginLeft, marginTop, plotW, plotH)
	// Title and axis labels.
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="20" text-anchor="middle" font-size="14" font-weight="bold">%s</text>`+"\n",
			marginLeft+plotW/2, escape(c.Title))
	}
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`+"\n",
			marginLeft+plotW/2, float64(chartHeight)-10, escape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%.1f" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
			marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))
	}
	// Ticks (5 per axis, in transformed space; labels in data space).
	for i := 0; i <= 4; i++ {
		f := float64(i) / 4
		tx := xmin + f*(xmax-xmin)
		px := marginLeft + f*plotW
		label := tickLabel(tx, c.LogX)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n",
			px, marginTop+plotH, px, marginTop+plotH+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`+"\n",
			px, marginTop+plotH+18, label)
		ty := ymin + f*(ymax-ymin)
		py := marginTop + (1-f)*plotH
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n",
			marginLeft-4, py, marginLeft, py)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="end">%s</text>`+"\n",
			marginLeft-8, py+4, tickLabel(ty, false))
	}
	// Lines.
	for li, l := range c.Lines {
		color := palette[li%len(palette)]
		var pts []string
		flush := func() {
			if len(pts) > 1 {
				fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"/>`+"\n",
					strings.Join(pts, " "), color)
			}
			pts = pts[:0]
		}
		for i := range l.X {
			x, y := l.X[i], l.Y[i]
			bad := math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) ||
				(c.LogX && x <= 0)
			if bad {
				flush()
				continue
			}
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", sx(x), sy(y)))
		}
		flush()
		// Legend entry.
		ly := marginTop + 8 + float64(li)*legendRow
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
			marginLeft+plotW-150, ly, marginLeft+plotW-130, ly, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f">%s</text>`+"\n",
			marginLeft+plotW-125, ly+4, escape(l.Name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// tickLabel formats a tick value, undoing the log transform for display.
func tickLabel(v float64, isLog bool) string {
	if isLog {
		return fmt.Sprintf("%.3g", math.Pow(10, v))
	}
	return fmt.Sprintf("%.3g", v)
}

// escape sanitizes text nodes.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// FromSeries builds a chart line from round/value columns.
func FromSeries(name string, rounds []int, values []float64) Line {
	x := make([]float64, len(rounds))
	for i, r := range rounds {
		x[i] = float64(r)
	}
	return Line{Name: name, X: x, Y: values}
}
