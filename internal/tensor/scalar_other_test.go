//go:build !amd64

package tensor

import "testing"

// forEachKernelSet runs f on the scalar kernels, the only set off amd64.
func forEachKernelSet(t *testing.T, f func(t *testing.T)) { t.Run("Scalar", f) }
