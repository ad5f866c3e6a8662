package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
)

func TestGenerateSyntheticShapes(t *testing.T) {
	cfg := SyntheticConfig{NumDevices: 20, Alpha: 1, Beta: 1, MinSamples: 37, MaxSamples: 500, Seed: 1}
	p, test := GenerateSynthetic(cfg)
	if len(p.Clients) != 20 {
		t.Fatalf("%d clients", len(p.Clients))
	}
	for k, c := range append(p.Clients, test) {
		if c.Dim != 60 || c.NumClasses != 10 {
			t.Fatalf("client %d shape wrong", k)
		}
		if k < len(p.Clients) && (c.N() < 27 || c.N() > 375) { // int(0.75·n), n in [37, 500]
			t.Fatalf("client %d: %d training samples outside 75 %% of [37, 500]", k, c.N())
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

// TestGenerateSyntheticMatchesSplit holds GenerateSynthetic to the
// pipeline it replaced: every device's n samples drawn in order into a
// shard of their own, each shard split in place by
// Split(0.75, DeriveSeed(Seed, k+9000)), and the held-out views merged
// in device order. The training shards and the test set must be those
// bits, and views of one allocation: every training row first, then the
// test set, each shard's capacity ending at its last row.
func TestGenerateSyntheticMatchesSplit(t *testing.T) {
	for _, cfg := range []SyntheticConfig{
		{NumDevices: 7, Alpha: 0.5, Beta: 1.5, MinSamples: 1, MaxSamples: 90, Seed: 3},
		{NumDevices: 30, Alpha: 1, Beta: 1, MinSamples: 37, MaxSamples: 400, Seed: 2020},
	} {
		sizes := randx.PowerLawSizes(randx.New(cfg.Seed), cfg.NumDevices, sizePowerLaw, cfg.MinSamples, cfg.MaxSamples)
		sigma := make([]float64, syntheticDim)
		for j := range sigma {
			sigma[j] = math.Pow(float64(j+1), -0.6)
		}
		var tests []*Dataset
		train, test := GenerateSynthetic(cfg)
		for k, n := range sizes {
			rng := randx.NewStream(cfg.Seed, int64(k)+1)
			uk := math.Sqrt(cfg.Alpha) * rng.NormFloat64()
			bk := math.Sqrt(cfg.Beta) * rng.NormFloat64()
			w, b, v := make([]float64, 10*60), make([]float64, 10), make([]float64, 60)
			randx.NormalVec(rng, w, uk, 1)
			randx.NormalVec(rng, b, uk, 1)
			randx.NormalVec(rng, v, bk, 1)
			shard := New(60, 10, n)
			x, logits := make([]float64, 60), make([]float64, 10)
			for i := 0; i < n; i++ {
				for j := range x {
					x[j] = v[j] + sigma[j]*rng.NormFloat64()
				}
				for c := range logits {
					logits[c] = b[c] + mathx.Dot(w[c*60:(c+1)*60], x)
				}
				shard.AppendClass(x, mathx.ArgMax(logits))
			}
			tr, te := shard.Split(0.75, randx.DeriveSeed(cfg.Seed, int64(k)+9000))
			sameData(t, fmt.Sprintf("seed %d shard %d", cfg.Seed, k), train.Clients[k], tr)
			if got := train.Clients[k]; cap(got.X) != len(got.X) || cap(got.Y) != len(got.Y) {
				t.Fatalf("seed %d shard %d: capacity runs past its rows", cfg.Seed, k)
			}
			tests = append(tests, te)
		}
		sameData(t, fmt.Sprintf("seed %d test set", cfg.Seed), test, Merge(tests...))
		last := train.Clients[len(train.Clients)-1].X
		if unsafe.Add(unsafe.Pointer(&last[len(last)-1]), 8) != unsafe.Pointer(&test.X[0]) {
			t.Fatalf("seed %d: the test set does not follow the last training shard in one allocation", cfg.Seed)
		}
	}
}

// sameData fails unless got and want hold the same labels and feature bits.
func sameData(t *testing.T, what string, got, want *Dataset) {
	t.Helper()
	if got.N() != want.N() || got.Dim != want.Dim || got.NumClasses != want.NumClasses {
		t.Fatalf("%s: %d×%d (%d classes), want %d×%d (%d classes)", what,
			got.N(), got.Dim, got.NumClasses, want.N(), want.Dim, want.NumClasses)
	}
	for i := range want.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("%s: label %d = %d, want %d", what, i, got.Y[i], want.Y[i])
		}
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: feature %d = %v, want %v", what, i, got.X[i], want.X[i])
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := SyntheticConfig{NumDevices: 3, Alpha: 0.5, Beta: 0.5, MinSamples: 20, MaxSamples: 30, Seed: 7}
	p1, t1 := GenerateSynthetic(cfg)
	p2, t2 := GenerateSynthetic(cfg)
	for k := range p1.Clients {
		for i := range p1.Clients[k].X {
			if p1.Clients[k].X[i] != p2.Clients[k].X[i] {
				t.Fatal("synthetic generation not deterministic")
			}
		}
	}
	for i := range t1.X {
		if t1.X[i] != t2.X[i] {
			t.Fatal("synthetic test set not deterministic")
		}
	}
}

// Heterogeneity property: with large alpha/beta the devices' feature
// distributions differ much more than with alpha=beta=0. The statistic is
// the variance across devices of a device's mean feature, which β sets
// through B_k. (The label mix is no statistic here: at d = 60, C = 10 every
// device's own W_k spreads it as much at α = β = 0 as at 2.)
func TestSyntheticHeterogeneityKnob(t *testing.T) {
	spread := func(alpha, beta float64) float64 {
		cfg := SyntheticConfig{NumDevices: 30, Alpha: alpha, Beta: beta, MinSamples: 200, MaxSamples: 200, Seed: 11}
		p, _ := GenerateSynthetic(cfg)
		means := make([]float64, len(p.Clients))
		for k, c := range p.Clients {
			for _, v := range c.X {
				means[k] += v
			}
			means[k] /= float64(len(c.X))
		}
		var mu, v float64
		for _, m := range means {
			mu += m / float64(len(means))
		}
		for _, m := range means {
			v += (m - mu) * (m - mu)
		}
		return v / float64(len(means))
	}
	iid := spread(0, 0)
	het := spread(2, 2)
	if het <= 10*iid {
		t.Fatalf("heterogeneity knob ineffective: spread(2,2)=%v <= 10·spread(0,0)=%v", het, 10*iid)
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
