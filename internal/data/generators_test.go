package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
)

func TestGenerateSyntheticShapes(t *testing.T) {
	cfg := SyntheticConfig{
		NumDevices: 20, Dim: 60, NumClasses: 10,
		Alpha: 1, Beta: 1, MinSamples: 37, MaxSamples: 500, Seed: 1,
	}
	p := GenerateSynthetic(cfg)
	if len(p.Clients) != 20 {
		t.Fatalf("%d clients", len(p.Clients))
	}
	for k, c := range p.Clients {
		if c.Dim != 60 || c.NumClasses != 10 {
			t.Fatalf("client %d shape wrong", k)
		}
		if c.N() < 37 || c.N() > 500 {
			t.Fatalf("client %d size %d outside range", k, c.N())
		}
		for _, y := range c.Y {
			if y < 0 || y >= 10 {
				t.Fatalf("bad label %d", y)
			}
		}
		for _, v := range c.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("client %d has non-finite feature %v", k, v)
			}
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := SyntheticConfig{NumDevices: 3, Dim: 10, NumClasses: 4,
		Alpha: 0.5, Beta: 0.5, MinSamples: 20, MaxSamples: 30, Seed: 7}
	p1 := GenerateSynthetic(cfg)
	p2 := GenerateSynthetic(cfg)
	for k := range p1.Clients {
		for i := range p1.Clients[k].X {
			if p1.Clients[k].X[i] != p2.Clients[k].X[i] {
				t.Fatal("synthetic generation not deterministic")
			}
		}
	}
}

// Heterogeneity property: with large alpha/beta the per-device label
// distributions should differ much more than with alpha=beta=0.
func TestSyntheticHeterogeneityKnob(t *testing.T) {
	spread := func(alpha, beta float64) float64 {
		cfg := SyntheticConfig{NumDevices: 30, Dim: 20, NumClasses: 5,
			Alpha: alpha, Beta: beta, MinSamples: 200, MaxSamples: 200, Seed: 11}
		p := GenerateSynthetic(cfg)
		// Average total-variation distance of device label dist to global.
		global := make([]float64, 5)
		for _, c := range p.Clients {
			for _, y := range c.Y {
				global[y]++
			}
		}
		mathx.Scal(1/float64(p.TotalSamples()), global)
		var tv float64
		for _, c := range p.Clients {
			local := make([]float64, 5)
			for _, y := range c.Y {
				local[y]++
			}
			mathx.Scal(1/float64(c.N()), local)
			for j := range local {
				tv += math.Abs(local[j] - global[j])
			}
		}
		return tv / float64(len(p.Clients))
	}
	iid := spread(0, 0)
	het := spread(2, 2)
	if het <= iid {
		t.Fatalf("heterogeneity knob ineffective: spread(2,2)=%v <= spread(0,0)=%v", het, iid)
	}
}

func TestImageGeneratorBasics(t *testing.T) {
	for _, style := range []ImageStyle{StyleDigits, StyleFashion} {
		g := NewImageGenerator(ImageConfig{Style: style, Seed: 5})
		d := g.Generate(200, 0)
		if d.N() != 200 || d.Dim != ImageDim || d.NumClasses != 10 {
			t.Fatalf("style %d: bad dataset shape", style)
		}
		counts := make([]int, d.NumClasses)
		for _, y := range d.Y {
			counts[y]++
		}
		for c, n := range counts {
			if n != 20 {
				t.Fatalf("style %d: class %d has %d samples, want 20", style, c, n)
			}
		}
		for _, v := range d.X {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v outside [0,1]", v)
			}
		}
	}
}

func TestImageGeneratorDeterministicAndSeparable(t *testing.T) {
	g1 := NewImageGenerator(ImageConfig{Seed: 5})
	g2 := NewImageGenerator(ImageConfig{Seed: 5})
	d1 := g1.Generate(50, 3)
	d2 := g2.Generate(50, 3)
	for i := range d1.X {
		if d1.X[i] != d2.X[i] {
			t.Fatal("image generation not deterministic")
		}
	}
	// Classes must be separable: mean intra-class distance should be
	// smaller than mean inter-class distance (nearest-centroid signal).
	d := g1.Generate(500, 4)
	centroids := make([][]float64, 10)
	counts := make([]int, 10)
	for c := range centroids {
		centroids[c] = make([]float64, ImageDim)
	}
	for i := 0; i < d.N(); i++ {
		mathx.Axpy(1, d.Sample(i), centroids[d.Y[i]])
		counts[d.Y[i]]++
	}
	for c := range centroids {
		mathx.Scal(1/float64(counts[c]), centroids[c])
	}
	correct := 0
	for i := 0; i < d.N(); i++ {
		best, bestD := -1, math.Inf(1)
		for c := range centroids {
			diff := mathx.Clone(d.Sample(i))
			mathx.Axpy(-1, centroids[c], diff)
			if dist := mathx.Nrm2Sq(diff); dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == d.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(d.N())
	if acc < 0.6 {
		t.Fatalf("nearest-centroid accuracy %.2f too low — classes not separable", acc)
	}
}

// TestIDXRoundTrip reads back the files WriteIDX produced: big-endian
// magic/count/rows/cols headers, one byte per pixel quantized as v·255, and
// one byte per label.
func TestIDXRoundTrip(t *testing.T) {
	g := NewImageGenerator(ImageConfig{Seed: 5})
	d := g.Generate(30, 1)
	dir := t.TempDir()
	imgs := filepath.Join(dir, "imgs.idx")
	lbls := filepath.Join(dir, "lbls.idx")
	if err := WriteIDX(d, imgs, lbls); err != nil {
		t.Fatal(err)
	}
	header := func(words ...uint32) []byte {
		var b bytes.Buffer
		for _, w := range words {
			binary.Write(&b, binary.BigEndian, w)
		}
		return b.Bytes()
	}
	img, err := os.ReadFile(imgs)
	if err != nil {
		t.Fatal(err)
	}
	hdr := header(0x00000803, uint32(d.N()), 28, 28)
	if !bytes.Equal(img[:len(hdr)], hdr) || len(img) != len(hdr)+d.N()*d.Dim {
		t.Fatalf("image file: header % x, %d bytes", img[:len(hdr)], len(img))
	}
	for i, v := range d.X {
		if got := img[len(hdr)+i]; got != byte(v*255) {
			t.Fatalf("pixel %d: wrote %d, want byte(%v·255) = %d", i, got, v, byte(v*255))
		}
	}
	lbl, err := os.ReadFile(lbls)
	if err != nil {
		t.Fatal(err)
	}
	hdr = header(0x00000801, uint32(d.N()))
	if !bytes.Equal(lbl[:len(hdr)], hdr) || len(lbl) != len(hdr)+d.N() {
		t.Fatalf("label file: header % x, %d bytes", lbl[:len(hdr)], len(lbl))
	}
	for i, y := range d.Y {
		if int(lbl[len(hdr)+i]) != y {
			t.Fatalf("label %d: wrote %d, want %d", i, lbl[len(hdr)+i], y)
		}
	}
}

func TestWriteIDXRejectsNonSquare(t *testing.T) {
	d := New(10, 2, 1)
	x := make([]float64, 10)
	d.AppendClass(x, 0)
	dir := t.TempDir()
	if err := WriteIDX(d, filepath.Join(dir, "a"), filepath.Join(dir, "b")); err == nil {
		t.Fatal("expected error for non-square dim")
	}
}

func TestImageSampleDstValidation(t *testing.T) {
	g := NewImageGenerator(ImageConfig{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dst size")
		}
	}()
	g.Sample(randx.New(1), 0, make([]float64, 3))
}
