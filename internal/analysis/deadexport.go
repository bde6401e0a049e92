package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport keeps the internal packages cut to their callers: every
// exported function or method declared under internal/ must be
// referenced from non-test code somewhere in the module — cmd/,
// examples/, bench/ and the other internal packages all count — or
// carry //minoaner:keep with the reason a caller-less export stays. An
// export that only its own tests reach is a second path per concept
// that nothing runs.
//
// Methods of unexported types are exempt, as are methods that
// implement an interface declared in the module or one of the usual
// standard-library interfaces (stdInterfaces): those are called
// through the interface, which the use set cannot see.
var DeadExport = &Rule{
	Name: "deadexport",
	Doc:  "exported internal funcs and methods need a non-test caller in the module",
	run:  runDeadExport,
}

// stdInterfaces lists the standard-library interfaces an internal type
// may satisfy, each as its methods' names and signatures (as sigString
// prints them). A method is exempt only when its type has every method
// of one interface, so a lone Len is not taken for sort.Interface.
var stdInterfaces = []map[string]string{
	{"String": "() string"},                                       // fmt.Stringer
	{"Error": "() string"},                                        // error
	{"Unwrap": "() error"},                                        // errors.Unwrap
	{"Read": "([]byte) (int, error)"},                             // io.Reader
	{"Write": "([]byte) (int, error)"},                            // io.Writer
	{"Close": "() error"},                                         // io.Closer
	{"ServeHTTP": "(net/http.ResponseWriter, *net/http.Request)"}, // net/http.Handler
	{"Flush": "()"},                                               // net/http.Flusher

	// sort.Interface and container/heap.Interface
	{"Len": "() int", "Less": "(int, int) bool", "Swap": "(int, int)"},
	{"Len": "() int", "Less": "(int, int) bool", "Swap": "(int, int)", "Push": "(any)", "Pop": "() any"},
}

func runDeadExport(p *Pass) {
	if !strings.Contains(p.Pkg.Path, "/internal/") {
		return
	}
	uses, ifaces, err := p.ldr.moduleUses()
	if err != nil {
		p.Reportf(p.Pkg.Files[0].Package, "cannot build the module's use set: %v", err)
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || uses[fn] || calledThroughInterface(fn, ifaces) {
				continue
			}
			if d := p.Pkg.Dirs.inDoc(fd.Doc, "keep"); d != nil {
				d.used = true
				continue
			}
			p.Reportf(fd.Name.Pos(), "%s has no caller outside tests: delete it, move it into a _test.go file, or annotate //minoaner:keep with the reason it stays",
				funcName(fn))
		}
	}
}

// calledThroughInterface reports whether fn is a method the use set
// cannot see: one of an unexported type, or one implementing a module
// interface or a standard-library interface method.
func calledThroughInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !named.Obj().Exported() {
		return true
	}
	// The pointer's method set holds the value's too, so checking *T
	// covers both receivers.
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	for _, std := range stdInterfaces {
		if _, ok := std[fn.Name()]; ok && hasMethods(mset, fn.Pkg(), std) {
			return true
		}
	}
	if named.TypeParams().Len() > 0 {
		return false // Implements is unspecified on uninstantiated types
	}
	for _, iface := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// hasMethods reports whether the method set has every method of want
// with the signature it lists.
func hasMethods(mset *types.MethodSet, pkg *types.Package, want map[string]string) bool {
	for name, sig := range want {
		sel := mset.Lookup(pkg, name)
		if sel == nil || sigString(sel.Type().(*types.Signature)) != sig {
			return false
		}
	}
	return true
}

// sigString prints a signature's parameter and result types without
// names, e.g. "([]byte) (int, error)".
func sigString(sig *types.Signature) string {
	tuple := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), nil)
		}
		return strings.Join(parts, ", ")
	}
	s := "(" + tuple(sig.Params()) + ")"
	switch sig.Results().Len() {
	case 0:
	case 1:
		s += " " + tuple(sig.Results())
	default:
		s += " (" + tuple(sig.Results()) + ")"
	}
	return s
}

// funcName renders a function as pkg.Name or pkg.Type.Method.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// moduleUses returns every function the module's non-test code
// references, by origin so generic code counts, and every non-generic
// interface the module declares. Both are built from the whole module
// whatever the loader was asked for, so a run over one package reports
// what a run over ./... reports for it; they are rebuilt when more
// packages have been loaded since.
func (l *Loader) moduleUses() (map[*types.Func]bool, []*types.Interface, error) {
	if l.uses == nil {
		if _, err := l.Load(l.ModRoot + "/..."); err != nil {
			return nil, nil, err
		}
	} else if l.usesFrom == len(l.pkgs) {
		return l.uses, l.ifaces, nil
	}
	l.uses, l.ifaces, l.usesFrom = make(map[*types.Func]bool), nil, len(l.pkgs)
	for _, pkg := range l.pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				l.uses[fn.Origin()] = true
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
				l.ifaces = append(l.ifaces, iface)
			}
		}
	}
	return l.uses, l.ifaces, nil
}
