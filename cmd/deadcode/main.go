// Command deadcode fails when the module declares a function that no binary
// links. It builds every main package of the module, plus the benchmark
// module in bench/, with inlining off (-gcflags=all=-l, so a small function
// keeps its own symbol), lists the module's text symbols with `go tool nm`,
// and diffs them against the functions and methods declared in the non-test
// files `go list` selects for the host GOOS/GOARCH. Run it from the module
// root:
//
//	go run ./cmd/deadcode
//
// Every unlinked function not on the allowlist below is printed and the
// command exits 1. So is an allowlist entry that no longer matches an
// unlinked function, so the list cannot outlive its reasons. Functions of
// main packages are not checked: the linker names them all main.*, so they
// cannot be told apart across binaries.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allow lists functions kept without a linked caller. An entry is a
// function key as printed by this command, or "pkg.*" for a whole package.
var allow = []struct{ name, reason string }{
	{"fedproxvr.Runner.Step", "root facade API: one round at a time for library callers"},
	{"fedproxvr/internal/engine.Engine.Step", "the one-round API behind Runner.Step; every binary drives Run"},
	{"fedproxvr.Runner.LocalAccuracy", "root facade API: the theory bridge to the achieved local accuracy θ̂"},
	{"fedproxvr.FromTheory", "root facade API: a Config from the paper's Lemma 1 / Theorem 1 choice"},
	{"fedproxvr.EstimateSigmaBar2", "root facade API: σ̄² estimate that the §4.3 optimizer consumes"},
	{"fedproxvr.EstimateDelta", "root facade API: Δ estimate that the §4.3 optimizer consumes"},
	{"fedproxvr/internal/optim.Solver.SurrogateGradNorm", "theory bridge behind Runner.LocalAccuracy"},
	{"fedproxvr/internal/optim.Solver.LocalGradNorm", "theory bridge behind Runner.LocalAccuracy"},
	{"fedproxvr/internal/theory.*", "the paper's Lemma 1 / Theorem 1 bounds, SVRG variants included"},
	{"fedproxvr/internal/testx.*", "test helpers: imported only by _test.go files"},
	{"fedproxvr/internal/obs.LintExposition", "exposition hygiene check run by `make expolint`"},
	{"fedproxvr/internal/obs.baseFamily", "helper of LintExposition"},
	{"fedproxvr/internal/engine.NewShardedMean", "flat reference that the aggregation-tree tests compare against"},
	{"fedproxvr/internal/engine.ShardedMean.Aggregate", "flat reference that the aggregation-tree tests compare against"},
	{"fedproxvr/internal/transport.Coordinator.AwaitRejoin", "rejoin barrier of the chaos suite, which as another package cannot reach a _test.go"},
}

func main() {
	dir, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	pkgs, err := listPackages()
	if err != nil {
		fatal(err)
	}
	linked, err := linkedSymbols(dir, pkgs)
	if err != nil {
		fatal(err)
	}
	declared, err := declaredFuncs(pkgs)
	if err != nil {
		fatal(err)
	}

	used := make([]bool, len(allow))
	var dead []string
	for _, fn := range declared {
		if linked[fn] {
			continue
		}
		if i := allowed(fn); i >= 0 {
			used[i] = true
			continue
		}
		dead = append(dead, fn)
	}
	var stale []string
	for i, a := range allow {
		if !used[i] {
			stale = append(stale, a.name)
		}
	}
	if len(dead) == 0 && len(stale) == 0 {
		fmt.Printf("deadcode: %d functions declared, every one linked or allowlisted (%d entries)\n", len(declared), len(allow))
		return
	}
	for _, fn := range dead {
		fmt.Println("unlinked:", fn)
	}
	for _, name := range stale {
		fmt.Println("stale allowlist entry:", name)
	}
	fmt.Fprintf(os.Stderr, "deadcode: %d unlinked function(s), %d stale allowlist entr(ies); delete the code, "+
		"move a test reference into its _test.go, or allowlist it with a reason in cmd/deadcode\n", len(dead), len(stale))
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deadcode:", err)
	os.Exit(2)
}

// allowed returns the index of the allowlist entry covering fn, or -1.
func allowed(fn string) int {
	for i, a := range allow {
		if a.name == fn || (strings.HasSuffix(a.name, ".*") && pkgOf(fn) == strings.TrimSuffix(a.name, ".*")) {
			return i
		}
	}
	return -1
}

// pkgOf returns the import path of a function key: everything before the
// first dot after the last slash.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	return fn[:slash+1+strings.IndexByte(fn[slash+1:], '.')]
}

// pkg is the subset of `go list -json` this command reads. GoFiles holds
// only the non-test files whose build constraints match the host.
type pkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Module     struct{ Path string }
}

func listPackages() ([]pkg, error) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []pkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("go list: no packages (run from the module root)")
	}
	return pkgs, nil
}

// linkedSymbols builds every main package, and the bench module when it is
// present, into dir and returns the normalised keys of the module's text
// symbols across all of them.
func linkedSymbols(dir string, pkgs []pkg) (map[string]bool, error) {
	module := pkgs[0].Module.Path
	args := []string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}
	for _, p := range pkgs {
		if p.Name == "main" {
			args = append(args, p.ImportPath)
		}
	}
	if err := run(exec.Command("go", args...)); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench.bin"), ".")
		build.Dir = "bench"
		if err := run(build); err != nil {
			return nil, err
		}
	}

	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			// "  addr T name" or "  addr t name"; names may contain spaces
			// inside generic brackets, so only the first two fields split.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if name := f[2]; name == module || strings.HasPrefix(name, module+".") || strings.HasPrefix(name, module+"/") {
				linked[normalize(name)] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

func run(cmd *exec.Cmd) error {
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	return nil
}

// normalize maps a linker symbol to the key declaredFuncs uses: the .abi0
// suffix of an assembly body and every generic [...] instantiation are
// dropped, and a pointer receiver (*T) becomes T.
func normalize(sym string) string {
	sym = strings.TrimSuffix(sym, ".abi0")
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if i := strings.Index(s, ".(*"); i >= 0 {
		if j := strings.Index(s[i:], ")."); j >= 0 {
			s = s[:i+1] + s[i+3:i+j] + s[i+j+1:]
		}
	}
	return s
}

// declaredFuncs parses every non-main package's selected non-test files and
// returns the sorted keys of its top-level functions and methods ("pkg.F",
// "pkg.T.M"). init and blank functions are skipped: nothing can call them.
func declaredFuncs(pkgs []pkg) ([]string, error) {
	fset := token.NewFileSet()
	var out []string
	for _, p := range pkgs {
		if p.Name == "main" {
			continue
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				key := p.ImportPath + "."
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				out = append(out, key+fd.Name.Name)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// recvName returns the base type name of a receiver: T for T, *T, T[E]
// and *T[E].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
