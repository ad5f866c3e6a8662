package tensor

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// xmmOperand matches an X or Y register operand.
var xmmOperand = regexp.MustCompile(`\b[XY](1[0-5]|[0-9])\b`)

// legacySSE returns the instructions of one assembly source line that are
// legacy (non-VEX) SSE: every legacy SSE instruction names an X register,
// and every VEX one is spelled with a leading V in Go's assembler, so an
// instruction with an X or Y operand and no V is legacy. Invocations of
// the file's own macros (whose bodies are checked line by line) are
// skipped, as are directives, labels and comments. Mixing legacy SSE into
// AVX code costs a state transition on many cores: a scalar tail written
// MOVSD/ADDSD made a vector kernel slower than the Go loop it replaced.
func legacySSE(line string, macros map[string]bool) []string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSuffix(strings.TrimSpace(line), `\`)
	if strings.HasPrefix(strings.TrimSpace(line), "#") {
		return nil
	}
	var bad []string
	for _, ins := range strings.Split(line, ";") {
		ins = strings.TrimSpace(ins)
		if j := strings.Index(ins, ":"); j >= 0 && !strings.ContainsAny(ins[:j], " \t(") {
			ins = strings.TrimSpace(ins[j+1:]) // a label
		}
		op, _, _ := strings.Cut(ins, " ")
		op, _, _ = strings.Cut(op, "\t")
		op, _, _ = strings.Cut(op, "(")
		if op == "" || macros[op] || strings.HasPrefix(op, "V") {
			continue
		}
		switch op {
		case "TEXT", "DATA", "GLOBL":
			continue
		}
		if xmmOperand.MatchString(ins[len(op):]) {
			bad = append(bad, ins)
		}
	}
	return bad
}

// TestAsmIsVEXOnly fails on any legacy SSE instruction in the package's
// amd64 assembly.
func TestAsmIsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found (%v)", err)
	}
	define := regexp.MustCompile(`^\s*#define\s+(\w+)`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		macros := map[string]bool{}
		for _, l := range lines {
			if m := define.FindStringSubmatch(l); m != nil {
				macros[m[1]] = true
			}
		}
		for i, l := range lines {
			for _, ins := range legacySSE(l, macros) {
				t.Errorf("%s:%d: legacy SSE instruction %q: use its VEX form", f, i+1, ins)
			}
		}
	}
}

// TestLegacySSEFindsSSE pins what the lint flags and what it lets pass.
func TestLegacySSEFindsSSE(t *testing.T) {
	macros := map[string]bool{"AXPY8": true}
	for _, tc := range []struct {
		line string
		bad  int
	}{
		{"\tMOVSD (DI), X0", 1},
		{"\tADDSD (SI), X0", 1},
		{"\tMOVUPD X1, (DI)", 1},
		{"\tMOVQ X0, AX // to a GPR", 1},
		{"\tPXOR X15, X15", 1},
		{"loop: ADDPD X1, X0", 1},
		{"\tVMOVSD (DI), X0; \\", 0},
		{"\tVADDSD (SI), X0, X0", 0},
		{"\tMOVQ AX, BX", 0},
		{"\tVZEROUPPER", 0},
		{"\tAXPY8((AX), Y0, Y1)", 0},
		{"// MOVSD X0, (DI) in a comment", 0},
		{"#define STORE(y) \\", 0},
		{"\tVMOVUPD Y0, (DI); MULPD X1, X2; \\", 1},
		{"TEXT ·f(SB), NOSPLIT, $0-8", 0},
	} {
		if got := legacySSE(tc.line, macros); len(got) != tc.bad {
			t.Errorf("%q: flagged %q, want %d instruction(s)", tc.line, got, tc.bad)
		}
	}
}
