package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// SectionSwitch guards the binary codecs (MSNP snapshots, MKB1 KBs,
// MPS1 prepared substrates): every section-ID
// constant must be handled by both the writer and the reader of its
// format, so a new optional section cannot be added half-way — written
// but silently skipped on load, or expected on load but never
// produced.
//
// A const group of section IDs carries
//
//	//minoaner:sections writer=<fn,...> reader=<fn,...>
//
// in its doc comment, naming the functions (or methods, by name) that
// make up each codec half; every constant in the group must then be
// referenced inside at least one function of each list, or carry
// //minoaner:unchecked with a reason. A const group whose names look
// like section IDs (snapX / secX) without the directive is itself a
// finding, so new codecs cannot opt out by accident.
var SectionSwitch = &Rule{
	Name: "sectionswitch",
	Doc:  "binary-format section constants must be wired into both the writer and the reader",
	run:  runSectionSwitch,
}

var sectionNameRE = regexp.MustCompile(`^(snap|sec)[A-Z]`)

func runSectionSwitch(p *Pass) {
	fns := make(map[string][]*ast.FuncDecl)
	var consts []*ast.GenDecl
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fns[d.Name.Name] = append(fns[d.Name.Name], d)
			case *ast.GenDecl:
				if d.Tok == token.CONST {
					consts = append(consts, d)
				}
			}
		}
	}
	for _, gd := range consts {
		dir := p.Pkg.Dirs.inDoc(gd.Doc, "sections")
		if dir == nil {
			if looksLikeSectionGroup(p, gd) {
				p.Reportf(gd.Pos(), "const group %s looks like binary-format section IDs but has no //minoaner:sections writer=<fn,...> reader=<fn,...> directive; without it a new section can be wired into only one codec half",
					groupNames(gd))
			}
			continue
		}
		dir.used = true
		checkSectionGroup(p, gd, dir, fns)
	}
}

func checkSectionGroup(p *Pass, gd *ast.GenDecl, dir *Directive, fns map[string][]*ast.FuncDecl) {
	roles, ok := parseSectionsArgs(p, dir)
	if !ok {
		return
	}
	type constant struct {
		obj types.Object
		pos token.Pos
	}
	var group []constant
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			if d := p.Pkg.Dirs.forNode(p.Pkg.Fset, vs, "unchecked"); d != nil {
				d.used = true
				continue
			}
			if obj := p.Pkg.Info.Defs[name]; obj != nil {
				group = append(group, constant{obj, name.Pos()})
			}
		}
	}
	for _, role := range [...]string{"writer", "reader"} {
		used := make(map[types.Object]bool)
		for _, fname := range roles[role] {
			decls := fns[fname]
			if len(decls) == 0 {
				p.Reportf(dir.Pos, "//minoaner:sections names %s %q, but no function or method with that name exists in %s",
					role, fname, p.Pkg.Path)
				continue
			}
			for _, fd := range decls {
				if fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.Pkg.Info.Uses[id]; obj != nil {
							used[obj] = true
						}
					}
					return true
				})
			}
		}
		for _, c := range group {
			if !used[c.obj] {
				p.Reportf(c.pos, "section constant %s is not referenced by %s %s: a section handled by one codec half but not the other is silently dropped; wire it through or mark it //minoaner:unchecked with a reason",
					c.obj.Name(), role, strings.Join(roles[role], "/"))
			}
		}
	}
}

// parseSectionsArgs parses "writer=a,b reader=c"; both roles required.
func parseSectionsArgs(p *Pass, dir *Directive) (map[string][]string, bool) {
	roles := map[string][]string{}
	for _, field := range strings.Fields(dir.Args) {
		key, val, found := strings.Cut(field, "=")
		if !found || (key != "writer" && key != "reader") || val == "" {
			p.Reportf(dir.Pos, "malformed //minoaner:sections argument %q: want writer=<fn,...> reader=<fn,...>", field)
			return nil, false
		}
		roles[key] = append(roles[key], strings.Split(val, ",")...)
	}
	if len(roles["writer"]) == 0 || len(roles["reader"]) == 0 {
		p.Reportf(dir.Pos, "//minoaner:sections must name both writer=<fn,...> and reader=<fn,...>")
		return nil, false
	}
	return roles, true
}

// looksLikeSectionGroup reports whether every constant in the group is
// an integer whose name matches the snapX/secX convention, with at
// least two constants.
func looksLikeSectionGroup(p *Pass, gd *ast.GenDecl) bool {
	n := 0
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			return false
		}
		for _, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			if !sectionNameRE.MatchString(name.Name) {
				return false
			}
			c, ok := p.Pkg.Info.Defs[name].(*types.Const)
			if !ok {
				return false
			}
			if b, ok := c.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
				return false
			}
			n++
		}
	}
	return n >= 2
}

func groupNames(gd *ast.GenDecl) string {
	var names []string
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			for _, name := range vs.Names {
				names = append(names, name.Name)
			}
		}
	}
	if len(names) > 3 {
		names = append(names[:3], "...")
	}
	return strings.Join(names, "/")
}
