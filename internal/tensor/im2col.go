package tensor

// ConvShape describes a 2-D convolution over a channels-first (C, H, W)
// input volume.
type ConvShape struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel height / width
	Stride        int
	Pad           int // symmetric zero padding
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.InH+2*s.Pad-s.KH)/s.Stride + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.InW+2*s.Pad-s.KW)/s.Stride + 1 }

// ColRows returns the number of rows of the im2col matrix: InC*KH*KW.
func (s ConvShape) ColRows() int { return s.InC * s.KH * s.KW }

// ColCols returns the number of columns of the im2col matrix: OutH*OutW.
func (s ConvShape) ColCols() int { return s.OutH() * s.OutW() }

// validCols returns the output columns [lo, hi) of kernel column kx whose
// input column ox·Stride + kx − Pad lies inside [0, InW); every other
// column reads padding. 0 ≤ lo ≤ hi ≤ ow holds even when the padding is
// wider than the input and the range is empty.
func (s ConvShape) validCols(kx, ow int) (lo, hi int) {
	if d := s.Pad - kx; d > 0 { // smallest ox with ox·Stride ≥ Pad − kx
		lo = (d + s.Stride - 1) / s.Stride
	}
	if d := s.InW + s.Pad - kx; d > 0 { // smallest ox with ox·Stride ≥ InW + Pad − kx
		hi = (d + s.Stride - 1) / s.Stride
	}
	hi = min(hi, ow)
	return min(lo, hi), hi
}

// Im2Col unrolls the input volume (len = InC*InH*InW, channels-first) into
// col, a ColRows×ColCols row-major matrix, so that convolution becomes a
// single GEMM: out(OC × OutH*OutW) = W(OC × ColRows) · col.
// Out-of-bounds taps (padding) contribute zeros.
//
// At stride 1 with OutW == InW (every "same" padding), each (c, ky, kx) row
// is one contiguous run of the channel plane (im2colRun). Otherwise each
// output row is two zeroed padding edges around one contiguous run of input
// taps (validCols), copied without a per-element bounds test.
func Im2Col(s ConvShape, input, col []float64) {
	oh, ow := s.OutH(), s.OutW()
	cols := oh * ow
	if len(input) != s.InC*s.InH*s.InW {
		panic("tensor: Im2Col input size mismatch")
	}
	if len(col) != s.ColRows()*cols {
		panic("tensor: Im2Col col size mismatch")
	}
	plane := s.InH * s.InW
	r := 0
	for c := 0; c < s.InC; c++ {
		chBase := c * plane
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				lo, hi := s.validCols(kx, ow)
				dst := col[r*cols : (r+1)*cols]
				r++
				if s.Stride == 1 && ow == s.InW {
					s.im2colRun(input[chBase:chBase+plane:chBase+plane], dst, ky, kx, lo, hi, oh)
					continue
				}
				for oy := 0; oy < oh; oy++ {
					row := dst[oy*ow : (oy+1)*ow]
					iy := oy*s.Stride + ky - s.Pad
					if iy < 0 || iy >= s.InH || lo == hi {
						clear(row)
						continue
					}
					clear(row[:lo])
					clear(row[hi:])
					src := input[chBase+iy*s.InW+lo*s.Stride+kx-s.Pad:]
					if s.Stride == 1 {
						copy(row[lo:hi], src)
						continue
					}
					for j, k := lo, 0; j < hi; j, k = j+1, k+s.Stride {
						row[j] = src[k]
					}
				}
			}
		}
	}
}

// im2colRun fills the im2col row dst of tap (ky, kx) from the channel
// plane at stride 1 with OutW == InW. There output element o reads plane
// element o + shift, shift = (ky − Pad)·InW + kx − Pad, so every output row
// whose input row lies inside the plane is one copy, clipped to the plane.
// That copy also fills the |kx − Pad| columns of each row outside
// [lo, hi), which wrap to the neighbouring input row (or are clipped off):
// they are zeroed after it, with the output rows that read padding. The
// caller caps plane at its channel, so a run clipped late panics instead of
// reading the next channel.
func (s ConvShape) im2colRun(plane, dst []float64, ky, kx, lo, hi, oh int) {
	ow := s.InW
	yLo := min(max(s.Pad-ky, 0), oh)         // first output row inside the input
	yHi := max(min(s.InH+s.Pad-ky, oh), yLo) // one past the last
	if lo == hi || yLo == yHi {
		clear(dst)
		return
	}
	clear(dst[:yLo*ow])
	clear(dst[yHi*ow:])
	shift := (ky-s.Pad)*s.InW + kx - s.Pad
	a, e := max(yLo*ow, -shift), min(yHi*ow, len(plane)-shift)
	copy(dst[a:e], plane[a+shift:e+shift])
	edge, n := 0, lo // the wrapped columns: [0, lo) or [hi, ow), never both
	if lo == 0 {
		edge, n = hi, ow-hi
	}
	for o := yLo*ow + edge; o < yHi*ow; o += ow {
		for j := o; j < o+n; j++ {
			dst[j] = 0
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatter-adds the columns back into an
// input-shaped gradient buffer. dInput is NOT zeroed first so contributions
// can accumulate across calls; callers zero it when starting a new sample.
//
// Each row adds only its validCols run. Within one im2col row no two
// columns reach the same input element, so every dInput element receives
// at most one term per row, in ascending (c, ky, kx) row order. With AVX2
// at stride 1 (every convolution of the paper CNN) a row's runs are one
// addRowsSIMD call, whose adds keep that order and take dInput as the
// first operand, as the compiled dInput[i] += term does: where both are
// NaNs, dInput's payload is kept. (A race or fuzz build may compile the Go
// loop with the operands swapped.)
func Col2Im(s ConvShape, col, dInput []float64) {
	oh, ow := s.OutH(), s.OutW()
	cols := oh * ow
	if len(dInput) != s.InC*s.InH*s.InW {
		panic("tensor: Col2Im input size mismatch")
	}
	if len(col) != s.ColRows()*cols {
		panic("tensor: Col2Im col size mismatch")
	}
	r := 0
	for c := 0; c < s.InC; c++ {
		chBase := c * s.InH * s.InW
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				lo, hi := s.validCols(kx, ow)
				src := col[r*cols : (r+1)*cols]
				r++
				if lo == hi {
					continue
				}
				if s.Stride == 1 && simdEnabled {
					// Output rows [yLo, yHi) read input rows inside the plane.
					yLo, yHi := max(s.Pad-ky, 0), min(s.InH+s.Pad-ky, oh)
					if yLo < yHi {
						d := chBase + (yLo+ky-s.Pad)*s.InW + lo + kx - s.Pad
						addRowsSIMD(src[yLo*ow+lo:(yHi-1)*ow+hi],
							dInput[d:d+(yHi-1-yLo)*s.InW+hi-lo], yHi-yLo, hi-lo, ow, s.InW)
					}
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride + ky - s.Pad
					if iy < 0 || iy >= s.InH {
						continue
					}
					run := src[oy*ow+lo : oy*ow+hi]
					dst := dInput[chBase+iy*s.InW+lo*s.Stride+kx-s.Pad:]
					if s.Stride == 1 {
						dst = dst[:len(run)]
						for j, v := range run {
							dst[j] += v
						}
						continue
					}
					for j, k := 0, 0; j < len(run); j, k = j+1, k+s.Stride {
						dst[k] += run[j]
					}
				}
			}
		}
	}
}
