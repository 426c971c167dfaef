//go:build ignore

// Lists the non-test functions of the repository (outside benchmark/) that
// no program links, each with the reason it is kept. scripts/unlinked.sh
// builds the programs, the test binaries and the public-API program, and
// passes their `go tool nm` text symbols on stdin as lines of
// "<kind> <owner> <nm type> <symbol>", kind being bin, test or api.
//
//	go run scripts/unlinked.go <root> < symbols
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := os.Args[1]
	inBin := map[string]bool{}              // "<program> <symbol>" and "* <symbol>"
	inTests := map[string]map[string]bool{} // symbol -> packages whose test binary links it
	inAPI := map[string]bool{}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(nil, 1<<20)
	for in.Scan() {
		f := strings.SplitN(in.Text(), " ", 4)
		if len(f) != 4 || (f[2] != "T" && f[2] != "t") {
			continue
		}
		kind, owner, sym := f[0], f[1], stripTypeArgs(f[3])
		switch kind {
		case "bin":
			inBin[owner+" "+sym] = true
			inBin["* "+sym] = true
		case "test":
			if inTests[sym] == nil {
				inTests[sym] = map[string]bool{}
			}
			inTests[sym][owner] = true
		case "api":
			inAPI[sym] = true
		}
	}
	if err := in.Err(); err != nil {
		fail(err)
	}

	var lines []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "benchmark" || rel == "scripts" || rel == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		pkg := "fchain"
		if dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || (file.Name.Name == "main" && fn.Name.Name == "main") {
				continue
			}
			name := pkg + "." + funcName(fn)
			if file.Name.Name == "main" {
				// Each main package is its own program and names its
				// symbols main.*; no other package can call them.
				if !inBin[filepath.Base(dir)+" main."+funcName(fn)] {
					lines = append(lines, fmt.Sprintf("%-10s %s", "none", name))
				}
				continue
			}
			if !inBin["* "+name] {
				lines = append(lines, fmt.Sprintf("%-10s %s", reason(pkg, name, inAPI[name], inTests[name]), name))
			}
		}
		return nil
	})
	if err != nil {
		fail(err)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i][11:] < lines[j][11:] })
	for _, l := range lines {
		fmt.Println(l)
	}
}

// reason says why an unlinked function of package pkg is kept, or "none".
func reason(pkg, name string, api bool, tests map[string]bool) string {
	switch {
	case api:
		return "public-api"
	case pkg == "fchain/internal/faultnet", pkg == "fchain/internal/golden":
		return "test-infra"
	}
	for owner := range tests {
		if owner != pkg {
			return "test-infra"
		}
	}
	return "none"
}

// funcName renders a declaration as nm prints it: F, T.M or (*T).M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := t.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// stripTypeArgs drops every bracketed type-argument list, which nm prints
// with spaces inside: pkg.gather[go.shape.struct { ... }] is pkg.gather.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "unlinked:", err)
	os.Exit(1)
}
