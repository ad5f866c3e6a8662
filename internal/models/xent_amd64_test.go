package models

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// fmaOffChild marks the re-executed process of TestHeadWithoutFMA.
const fmaOffChild = "FEDPROXVR_TEST_FMA_OFF"

// TestHeadWithoutFMA re-executes this test binary under
// GODEBUG=cpu.fma=off, where math.Exp takes its non-FMA path and rounds
// some arguments 1 ulp away from the FMA path the exp kernel replays, and
// runs TestHeadMatchesRowReference there. tensor's CPUID gate still sees
// FMA; only the kernel's init-time probe against math.Exp keeps the
// models' head on math.Exp's bits.
func TestHeadWithoutFMA(t *testing.T) {
	if os.Getenv(fmaOffChild) != "" {
		// The non-FMA rounding of the probe argument: the setting reached math.Exp.
		if got := math.Float64bits(math.Exp(-1.1057467696506076)); got != 0x3fd52e821a8ec2c4 {
			t.Fatalf("math.Exp still rounds like its FMA path (%#x) under GODEBUG=%s", got, os.Getenv("GODEBUG"))
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestHeadWithoutFMA|TestHeadMatchesRowReference)$", "-test.count=1", "-test.v")
	// Keep the parent's GODEBUG settings: os/exec passes only the last of
	// two GODEBUG entries.
	godebug := "cpu.fma=off"
	if prev := os.Getenv("GODEBUG"); prev != "" {
		godebug = prev + "," + godebug
	}
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GODEBUG=") {
			env = append(env, kv)
		}
	}
	cmd.Env = append(env, "GODEBUG="+godebug, fmaOffChild+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
