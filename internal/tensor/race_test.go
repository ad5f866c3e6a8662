//go:build race

package tensor

// raceBuild reports a race detector build, whose instrumentation may
// compile a commutative add with its operands swapped.
const raceBuild = true
