package minoaner_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite api.txt (TestAPI) or testdata/ledger.json (TestLedger)")

// TestAPI keeps api.txt, the written-down public surface of the
// package, in step with the code: one line per exported func, method,
// type, struct field, const and var, in the style of Go's own api/
// files. Any change to the surface fails here until api.txt is
// regenerated with
//
//	go test . -run TestAPI -update
//
// so every addition, removal or re-typing shows up in the diff.
func TestAPI(t *testing.T) {
	got := strings.Join(apiLines(t, "."), "\n") + "\n"
	if *update {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("%v (generate it with: go test . -run TestAPI -update)", err)
	}
	if got == string(want) {
		return
	}
	added, removed := lineDiff(strings.Split(string(want), "\n"), strings.Split(got, "\n"))
	var msg strings.Builder
	msg.WriteString("the exported API differs from api.txt; if the change is intended, run: go test . -run TestAPI -update")
	for _, l := range added {
		msg.WriteString("\n+ " + l)
	}
	for _, l := range removed {
		msg.WriteString("\n- " + l)
	}
	t.Error(msg.String())
}

// lineDiff returns the lines only in got and the lines only in want.
func lineDiff(want, got []string) (added, removed []string) {
	for _, l := range got {
		if l != "" && !slices.Contains(want, l) {
			added = append(added, l)
		}
	}
	for _, l := range want {
		if l != "" && !slices.Contains(got, l) {
			removed = append(removed, l)
		}
	}
	return added, removed
}

// apiLines parses the non-test Go files of the package in dir and
// renders its exported surface, sorted.
func apiLines(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	w := apiWriter{t: t, fset: fset}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		w.pkg = f.Name.Name
		for _, d := range f.Decls {
			w.decl(d)
		}
	}
	slices.Sort(w.lines)
	return w.lines
}

type apiWriter struct {
	t     *testing.T
	fset  *token.FileSet
	pkg   string
	lines []string
}

func (w *apiWriter) emit(format string, args ...any) {
	w.lines = append(w.lines, "pkg "+w.pkg+", "+fmt.Sprintf(format, args...))
}

// expr prints a type or value expression as gofmt would.
func (w *apiWriter) expr(e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, w.fset, e); err != nil {
		w.t.Fatal(err)
	}
	return b.String()
}

// signature renders a func type without parameter names, as api/
// files do: "(context.Context, *KB, ...ResolveOption) (*Result, error)".
func (w *apiWriter) signature(ft *ast.FuncType) string {
	s := "(" + strings.Join(w.types(ft.Params), ", ") + ")"
	res := w.types(ft.Results)
	switch {
	case len(res) == 1:
		s += " " + res[0]
	case len(res) > 1:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}

// types lists a field list's types, one per declared name.
func (w *apiWriter) types(fl *ast.FieldList) []string {
	if fl == nil {
		return nil
	}
	var out []string
	for _, f := range fl.List {
		typ := w.expr(f.Type)
		for range max(len(f.Names), 1) {
			out = append(out, typ)
		}
	}
	return out
}

func (w *apiWriter) decl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		w.funcDecl(d)
	case *ast.GenDecl:
		switch d.Tok {
		case token.TYPE:
			for _, s := range d.Specs {
				w.typeSpec(s.(*ast.TypeSpec))
			}
		case token.CONST:
			w.constDecl(d)
		case token.VAR:
			for _, s := range d.Specs {
				w.varSpec(s.(*ast.ValueSpec))
			}
		}
	}
}

func (w *apiWriter) funcDecl(d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	if d.Type.TypeParams != nil {
		w.t.Fatalf("func %s: generic declarations are not rendered; extend TestAPI", d.Name.Name)
	}
	if d.Recv == nil {
		w.emit("func %s%s", d.Name.Name, w.signature(d.Type))
		return
	}
	recv := d.Recv.List[0].Type
	if !typeName(recv).IsExported() {
		return
	}
	w.emit("method (%s) %s%s", w.expr(recv), d.Name.Name, w.signature(d.Type))
}

// typeName is the named type under a receiver or embedded field:
// Index in *Index and in pkg.Index.
func typeName(e ast.Expr) *ast.Ident {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel
	}
	return e.(*ast.Ident)
}

func (w *apiWriter) typeSpec(s *ast.TypeSpec) {
	if !s.Name.IsExported() {
		return
	}
	name := s.Name.Name
	if s.TypeParams != nil || s.Assign.IsValid() {
		w.t.Fatalf("type %s: generic and alias declarations are not rendered; extend TestAPI", name)
	}
	switch typ := s.Type.(type) {
	case *ast.StructType:
		w.emit("type %s struct", name)
		for _, f := range typ.Fields.List {
			if len(f.Names) == 0 {
				if typeName(f.Type).IsExported() {
					w.emit("type %s struct, embedded %s", name, w.expr(f.Type))
				}
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					w.emit("type %s struct, %s %s", name, n.Name, w.expr(f.Type))
				}
			}
		}
	case *ast.InterfaceType:
		w.t.Fatalf("type %s: interfaces are not rendered; extend TestAPI", name)
	default:
		w.emit("type %s %s", name, w.expr(s.Type))
	}
}

// constDecl renders each exported const with its type and value. A
// spec without type and values repeats the previous spec's (the iota
// rule); a value that is iota itself renders as its index.
func (w *apiWriter) constDecl(d *ast.GenDecl) {
	var typ ast.Expr
	var values []ast.Expr
	for i, s := range d.Specs {
		vs := s.(*ast.ValueSpec)
		if vs.Type != nil || len(vs.Values) > 0 {
			typ, values = vs.Type, vs.Values
		}
		for j, n := range vs.Names {
			if !n.IsExported() {
				continue
			}
			val := w.expr(values[j])
			if val == "iota" {
				val = strconv.Itoa(i)
			} else if strings.Contains(val, "iota") {
				w.t.Fatalf("const %s: cannot render iota expression %q", n.Name, val)
			}
			if typ != nil {
				w.emit("const %s %s = %s", n.Name, w.expr(typ), val)
			} else {
				w.emit("const %s = %s", n.Name, val)
			}
		}
	}
}

// varSpec renders each exported var with its type: the declared one,
// or error for an errors.New / fmt.Errorf sentinel.
func (w *apiWriter) varSpec(vs *ast.ValueSpec) {
	for j, n := range vs.Names {
		if !n.IsExported() {
			continue
		}
		typ := ""
		if vs.Type != nil {
			typ = w.expr(vs.Type)
		} else if call, ok := vs.Values[j].(*ast.CallExpr); ok {
			if fn := w.expr(call.Fun); fn == "errors.New" || fn == "fmt.Errorf" {
				typ = "error"
			}
		}
		if typ == "" {
			w.t.Fatalf("var %s: cannot infer its type; declare it explicitly", n.Name)
		}
		w.emit("var %s %s", n.Name, typ)
	}
}
