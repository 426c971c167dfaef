package fchain_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fchain/internal/golden"
)

// TestKnobInventory pins the configuration surface in testdata/knobs.txt:
// every flag each binary under cmd/ declares, every exported With* option
// of internal/cluster and of the fchain facade (which mirrors cluster's by
// hand, so the two lists side by side show any drift), and every exported
// field of core.Config and cluster.ServiceConfig, followed by per-kind
// totals. Adding or removing a
// knob fails the test until `go test . -run TestKnobInventory -update`
// regenerates the file, so the file's history is the surface's history.
func TestKnobInventory(t *testing.T) {
	fset := token.NewFileSet()
	var buf bytes.Buffer
	counts := map[string]int{}
	line := func(kind, owner, name, detail string) {
		counts[kind]++
		counts[kind+" "+owner]++
		fmt.Fprintf(&buf, "%-6s %-21s %-24s %s\n", kind, owner, name, detail)
	}
	expr := func(e ast.Node) string {
		var sb strings.Builder
		if err := printer.Fprint(&sb, fset, e); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (%v)", err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || expr(sel.X) != "flag" {
				return true
			}
			// flag.String("name", def, usage), flag.StringVar(&v, "name",
			// def, usage) or flag.Var(v, "name", usage); calls such as
			// flag.Parse take no name.
			args := call.Args
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				args = args[1:]
			}
			if len(args) < 2 {
				return true
			}
			lit, ok := args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			def := ""
			if len(args) == 3 {
				def = expr(args[1])
			}
			line("flag", bin, "-"+name, def)
			return true
		})
	}

	type decls struct {
		dir, pkg string
		options  bool     // list exported With* functions
		structs  []string // list these types' exported fields
	}
	for _, d := range []decls{
		{dir: ".", pkg: "fchain", options: true},
		{dir: "internal/core", pkg: "core", structs: []string{"Config"}},
		{dir: "internal/cluster", pkg: "cluster", options: true, structs: []string{"ServiceConfig"}},
	} {
		files, err := filepath.Glob(filepath.Join(d.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		pkg := d.pkg
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if d.options && decl.Recv == nil && decl.Name.IsExported() && strings.HasPrefix(decl.Name.Name, "With") {
						line("option", pkg, decl.Name.Name, strings.TrimPrefix(expr(decl.Type), "func"))
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !slices.Contains(d.structs, ts.Name.Name) {
							continue
						}
						for _, field := range ts.Type.(*ast.StructType).Fields.List {
							for _, id := range field.Names {
								if id.IsExported() {
									line("field", pkg+"."+ts.Name.Name, id.Name, expr(field.Type))
								}
							}
						}
					}
				}
			}
		}
	}

	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf.WriteString("\n")
	for _, k := range keys {
		fmt.Fprintf(&buf, "total %-28s %d\n", k, counts[k])
	}
	golden.Assert(t, filepath.Join("testdata", "knobs.txt"), buf.Bytes())
}
