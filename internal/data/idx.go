package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
)

// WriteIDX writes a classification dataset of byte-quantized square images
// to IDX files (the MNIST distribution format), used by cmd/datagen to
// export the procedural corpora in a standard format.
func WriteIDX(d *Dataset, imagesPath, labelsPath string) error {
	side := 0
	for s := 1; s*s <= d.Dim; s++ {
		if s*s == d.Dim {
			side = s
		}
	}
	if side == 0 {
		return fmt.Errorf("data: dim %d is not a square image", d.Dim)
	}
	imf, err := os.Create(imagesPath)
	if err != nil {
		return err
	}
	defer imf.Close()
	w := bufio.NewWriter(imf)
	for _, v := range []uint32{0x00000803, uint32(d.N()), uint32(side), uint32(side)} {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, d.Dim)
	for i := 0; i < d.N(); i++ {
		row := d.Sample(i)
		for j, v := range row {
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			buf[j] = byte(v * 255)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	lbf, err := os.Create(labelsPath)
	if err != nil {
		return err
	}
	defer lbf.Close()
	lw := bufio.NewWriter(lbf)
	for _, v := range []uint32{0x00000801, uint32(d.N())} {
		if err := binary.Write(lw, binary.BigEndian, v); err != nil {
			return err
		}
	}
	for _, y := range d.Y {
		if err := lw.WriteByte(byte(y)); err != nil {
			return err
		}
	}
	return lw.Flush()
}
