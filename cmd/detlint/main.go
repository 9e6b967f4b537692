// Command detlint is the repo's determinism lint: it forbids ranging
// over a map in determinism-critical packages, because Go randomizes
// map iteration order and anything that flows from such a loop into
// statistics, NVM content, snapshots or provenance digests makes two
// identical runs diverge (the secmem engine's former per-node free
// list, refilled in map range order, was exactly this bug).
//
//	go run ./cmd/detlint ./...
//
// Every `for range` whose operand is map-typed is reported unless the
// line carries a suppression comment naming the reason the order
// cannot reach observable output, e.g.:
//
//	for addr := range pending { //detlint:ok keys collected then sorted below
//
// Only non-test files are checked: tests assert on outputs, so a test
// whose map iteration leaks into an assertion fails visibly on its
// own. The checker is pure stdlib (go/parser + go/types with the
// source importer) so `make verify` needs no tools beyond the
// toolchain. One importer serves every package, so each dependency is
// type-checked once; directories with their own go.mod (nested modules
// such as bench/) are skipped.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const suppression = "//detlint:ok"

func main() { os.Exit(run()) }

func run() int {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: detlint <package-dir>...")
		return 2
	}
	pkgDirs, err := expandDirs(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var findings []string
	for _, dir := range pkgDirs {
		f, err := lintDir(fset, imp, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			return 2
		}
		findings = append(findings, f...)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "detlint: %d map-order determinism leak(s); sort the keys first, or append `%s <reason>` when iteration order provably cannot reach observable output\n",
			len(findings), suppression)
		return 1
	}
	return 0
}

// expandDirs resolves the argument list to every directory under it
// that contains non-test Go files, outside nested modules.
func expandDirs(args []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, arg := range args {
		arg = strings.TrimSuffix(arg, "/...")
		err := filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
					dir := filepath.Dir(path)
					if !seen[dir] {
						seen[dir] = true
						out = append(out, dir)
					}
				}
				return nil
			}
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && name != ".") {
				return filepath.SkipDir
			}
			if path != arg {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// lintDir typechecks one package directory, resolving imports through
// imp, and reports unsuppressed map ranges.
func lintDir(fset *token.FileSet, imp types.Importer, dir string) ([]string, error) {
	var files []*ast.File
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer: imp,
		// Type errors degrade detection, they must not block the lint:
		// expressions the checker cannot type simply go unflagged.
		Error: func(error) {},
	}
	pkgName := files[0].Name.Name
	_, _ = conf.Check(pkgName, fset, files, info)

	suppressed := suppressedLines(fset, files)
	var findings []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := fset.Position(rs.Pos())
			if suppressed[pos.Filename][pos.Line] {
				return true
			}
			findings = append(findings, fmt.Sprintf("%s: range over %s has randomized iteration order",
				pos, tv.Type.String()))
			return true
		})
	}
	return findings, nil
}

// suppressedLines maps filename -> line numbers carrying a detlint:ok
// comment.
func suppressedLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, suppression) {
					continue
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]bool{}
				}
				out[pos.Filename][pos.Line] = true
			}
		}
	}
	return out
}
