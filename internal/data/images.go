package data

import (
	"math"
	"math/rand"

	"fedproxvr/internal/randx"
)

// ImageSide is the side length of generated images (28, matching MNIST).
const ImageSide = 28

// ImageDim is the flattened image dimension.
const ImageDim = ImageSide * ImageSide

// ImageStyle selects the procedural generator family.
type ImageStyle int

const (
	// StyleDigits produces stroke-based glyphs (MNIST substitute).
	StyleDigits ImageStyle = iota
	// StyleFashion produces blocky silhouettes (Fashion-MNIST substitute).
	StyleFashion
)

// ImageConfig controls procedural image generation. The generator is a
// documented substitution for the real MNIST / Fashion-MNIST corpora (see
// DESIGN.md §2): each of 10 classes owns 3 stroke/shape templates drawn
// from a class-specific random stream; each sample perturbs one template
// with a translation of up to 2 pixels, intensity jitter and pixel noise of
// stddev 0.15. This yields a 10-class dataset with intra-class structure
// and inter-class separation — the properties the paper's label-skew
// experiments rely on.
type ImageConfig struct {
	Style ImageStyle
	Seed  int64
}

// The generator's shape: classes, templates per class, pixel noise stddev
// and largest |translation| in pixels.
const (
	imageClasses    = 10
	imagePrototypes = 3
	imageNoise      = 0.15
	imageMaxShift   = 2
)

// ImageGenerator produces samples on demand; templates are built once.
type ImageGenerator struct {
	cfg       ImageConfig
	templates [][][]float64 // [class][prototype][ImageDim]
}

// NewImageGenerator builds the per-class templates deterministically from
// cfg.Seed.
func NewImageGenerator(cfg ImageConfig) *ImageGenerator {
	g := &ImageGenerator{cfg: cfg}
	g.templates = make([][][]float64, imageClasses)
	for c := 0; c < imageClasses; c++ {
		g.templates[c] = make([][]float64, imagePrototypes)
		for p := 0; p < imagePrototypes; p++ {
			rng := randx.NewStream(cfg.Seed, int64(c)*1000+int64(p))
			switch cfg.Style {
			case StyleFashion:
				g.templates[c][p] = renderFashionTemplate(rng, c)
			default:
				g.templates[c][p] = renderDigitTemplate(rng, c)
			}
		}
	}
	return g
}

// Generate produces a dataset of n labelled images with balanced classes,
// deterministic given the generator's seed and the provided stream id.
func (g *ImageGenerator) Generate(n int, stream int64) *Dataset {
	rng := randx.NewStream(g.cfg.Seed, 1<<32+stream)
	d := New(ImageDim, imageClasses, n)
	img := make([]float64, ImageDim)
	for i := 0; i < n; i++ {
		class := i % imageClasses
		g.Sample(rng, class, img)
		d.AppendClass(img, class)
	}
	return d
}

// Sample writes one randomized instance of the given class into dst
// (len ImageDim).
func (g *ImageGenerator) Sample(rng *rand.Rand, class int, dst []float64) {
	if len(dst) != ImageDim {
		panic("data: Sample dst must have ImageDim elements")
	}
	tmpl := g.templates[class][rng.Intn(len(g.templates[class]))]
	dx := rng.Intn(2*imageMaxShift+1) - imageMaxShift
	dy := rng.Intn(2*imageMaxShift+1) - imageMaxShift
	gain := 0.8 + 0.4*rng.Float64()
	for y := 0; y < ImageSide; y++ {
		for x := 0; x < ImageSide; x++ {
			sy, sx := y-dy, x-dx
			var v float64
			if sy >= 0 && sy < ImageSide && sx >= 0 && sx < ImageSide {
				v = tmpl[sy*ImageSide+sx]
			}
			v = v*gain + imageNoise*rng.NormFloat64()
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			dst[y*ImageSide+x] = v
		}
	}
}

// renderDigitTemplate draws a glyph of connected thick strokes whose control
// points depend on the class, giving each class a distinctive topology.
func renderDigitTemplate(rng *rand.Rand, class int) []float64 {
	img := make([]float64, ImageDim)
	// Class-specific anchor layout: place k anchors on a ring whose phase
	// and radius depend on the class, plus jitter.
	k := 3 + class%4 // 3..6 control points
	cx, cy := 14.0, 14.0
	phase := float64(class) * (2 * math.Pi / 10)
	rad := 7.0 + float64(class%3)
	pts := make([][2]float64, k)
	for i := range pts {
		ang := phase + float64(i)*2*math.Pi/float64(k)
		pts[i][0] = cx + rad*math.Cos(ang) + rng.NormFloat64()*1.2
		pts[i][1] = cy + rad*math.Sin(ang)*0.8 + rng.NormFloat64()*1.2
	}
	thick := 1.4 + 0.3*float64(class%2)
	for i := 0; i < k; i++ {
		j := (i + 1) % k
		// Even classes leave the ring open (stroke-like), odd close it.
		if class%2 == 0 && j == 0 {
			continue
		}
		drawLine(img, pts[i][0], pts[i][1], pts[j][0], pts[j][1], thick)
	}
	// A class-dependent crossbar adds inter-class separation.
	if class%3 == 0 {
		drawLine(img, cx-rad, cy, cx+rad, cy, 1.2)
	}
	return img
}

// renderFashionTemplate draws blocky garment-like silhouettes: a body
// rectangle with class-dependent aspect ratio plus optional "sleeves" and
// "legs".
func renderFashionTemplate(rng *rand.Rand, class int) []float64 {
	img := make([]float64, ImageDim)
	w := 8 + class%5*2  // 8..16 wide
	h := 10 + class%4*3 // 10..19 tall
	x0 := 14 - w/2 + rng.Intn(3) - 1
	y0 := 14 - h/2 + rng.Intn(3) - 1
	fillRect(img, x0, y0, w, h, 0.9)
	if class%2 == 0 { // sleeves
		fillRect(img, x0-4, y0+1, 4, 3+class%3, 0.7)
		fillRect(img, x0+w, y0+1, 4, 3+class%3, 0.7)
	}
	if class%3 == 1 { // legs
		lw := w/2 - 1
		fillRect(img, x0, y0+h, lw, 5, 0.8)
		fillRect(img, x0+w-lw, y0+h, lw, 5, 0.8)
	}
	if class%4 == 2 { // neck hole
		fillRect(img, x0+w/2-1, y0, 3, 2, 0.0)
	}
	return img
}

// drawLine rasterizes a thick anti-aliased segment into img.
func drawLine(img []float64, x0, y0, x1, y1, thick float64) {
	dx, dy := x1-x0, y1-y0
	length := math.Hypot(dx, dy)
	if length == 0 {
		length = 1e-9
	}
	for y := 0; y < ImageSide; y++ {
		for x := 0; x < ImageSide; x++ {
			// Distance from pixel center to the segment.
			px, py := float64(x)-x0, float64(y)-y0
			t := (px*dx + py*dy) / (length * length)
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			qx, qy := x0+t*dx, y0+t*dy
			d := math.Hypot(float64(x)-qx, float64(y)-qy)
			v := 1 - (d-thick/2)/1.0 // 1 inside, fades over 1px
			if v > 1 {
				v = 1
			}
			if v > img[y*ImageSide+x] {
				img[y*ImageSide+x] = v
			}
		}
	}
	for i, v := range img {
		if v < 0 {
			img[i] = 0
		}
	}
}

// fillRect paints an axis-aligned rectangle, clipped to the image.
func fillRect(img []float64, x0, y0, w, h int, intensity float64) {
	for y := y0; y < y0+h; y++ {
		if y < 0 || y >= ImageSide {
			continue
		}
		for x := x0; x < x0+w; x++ {
			if x < 0 || x >= ImageSide {
				continue
			}
			img[y*ImageSide+x] = intensity
		}
	}
}
