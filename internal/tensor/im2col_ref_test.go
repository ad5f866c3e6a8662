package tensor

// refIm2Col and refCol2Im are the per-element bodies the contiguous-run
// kernels replaced, kept as the bit-exact reference: every output column
// tests its own input column against [0, InW). refCol2Im's add is
// nanFirstAdd(dInput, term), the operand order the compiled
// dInput[i] += term has, pinned so that where both are NaNs the reference
// keeps dInput's payload whatever order the compiler picks for it.

func refIm2Col(s ConvShape, input, col []float64) {
	oh, ow := s.OutH(), s.OutW()
	cols := oh * ow
	r := 0
	for c := 0; c < s.InC; c++ {
		chBase := c * s.InH * s.InW
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				dst := col[r*cols : (r+1)*cols]
				r++
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride + ky - s.Pad
					if iy < 0 || iy >= s.InH {
						for ox := 0; ox < ow; ox++ {
							dst[i] = 0
							i++
						}
						continue
					}
					rowBase := chBase + iy*s.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*s.Stride + kx - s.Pad
						if ix < 0 || ix >= s.InW {
							dst[i] = 0
						} else {
							dst[i] = input[rowBase+ix]
						}
						i++
					}
				}
			}
		}
	}
}

func refCol2Im(s ConvShape, col, dInput []float64) {
	oh, ow := s.OutH(), s.OutW()
	cols := oh * ow
	r := 0
	for c := 0; c < s.InC; c++ {
		chBase := c * s.InH * s.InW
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				src := col[r*cols : (r+1)*cols]
				r++
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride + ky - s.Pad
					if iy < 0 || iy >= s.InH {
						i += ow
						continue
					}
					rowBase := chBase + iy*s.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*s.Stride + kx - s.Pad
						if ix >= 0 && ix < s.InW {
							dInput[rowBase+ix] = nanFirstAdd(dInput[rowBase+ix], src[i])
						}
						i++
					}
				}
			}
		}
	}
}
