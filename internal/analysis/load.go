package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("minoaner/internal/kb")
	Dir   string // absolute directory
	Name  string // package name
	Fset  *token.FileSet
	Files []*ast.File // non-test files, in filename order
	Types *types.Package
	Info  *types.Info
	Dirs  *Directives
}

// Loader resolves, parses, and type-checks packages of the enclosing
// module using only the standard library. Imports inside the module
// are mapped to directories and checked from source; everything else
// goes through the compiler's export data (with a from-source fallback
// for toolchains that do not ship it). The loader caches by import
// path, so shared dependencies are checked once.
type Loader struct {
	ModRoot string // directory holding go.mod
	ModPath string // module path from go.mod
	Base    string // directory patterns are resolved against
	Fset    *token.FileSet

	pkgs    map[string]*Package
	loading map[string]bool
	frozen  map[string]bool // "pkgpath.TypeName" marked //minoaner:frozen
	std     types.Importer
	stdSrc  types.Importer

	// moduleUses' cache, built over usesFrom loaded packages.
	uses     map[*types.Func]bool
	ifaces   []*types.Interface
	usesFrom int
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader locates the module enclosing dir.
func NewLoader(dir string) (*Loader, error) {
	base, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := base
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found in or above %s", base)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLineRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: root,
		ModPath: string(m[1]),
		Base:    base,
		Fset:    fset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		frozen:  make(map[string]bool),
		std:     importer.Default(),
	}, nil
}

// Frozen reports whether the named type carries //minoaner:frozen.
func (l *Loader) Frozen(tn *types.TypeName) bool {
	if tn == nil || tn.Pkg() == nil {
		return false
	}
	return l.frozen[tn.Pkg().Path()+"."+tn.Name()]
}

// Load resolves each pattern — a directory, or a "dir/..." tree rooted
// at one — against the loader's base directory and returns the loaded
// packages in import-path order. Tree expansion skips testdata, dot,
// and underscore directories, exactly like the go tool, so testdata
// packages are only analyzed when named explicitly.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "..."); ok {
			root := l.resolve(strings.TrimSuffix(base, "/"))
			sub, err := goDirs(root)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
		} else {
			dirs = append(dirs, l.resolve(pat))
		}
	}
	var pkgs []*Package
	seen := make(map[string]bool)
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if !seen[pkg.Path] {
			seen[pkg.Path] = true
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) resolve(pat string) string {
	if pat == "" || pat == "." {
		return l.Base
	}
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(l.Base, pat)
}

// unixGOOS mirrors the go tool's set of targets matching the "unix"
// build tag.
var unixGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "hurd": true, "illumos": true, "ios": true,
	"linux": true, "netbsd": true, "openbsd": true, "solaris": true,
}

// buildConstraintSatisfied reports whether a file's //go:build line (if
// any) matches the current platform, so platform-gated files are
// excluded the way the go tool excludes them — otherwise their
// alternative declarations collide during type checking. Only the
// tags this module's files gate on are evaluated (GOOS, GOARCH, unix,
// gc); unknown tags evaluate false.
func buildConstraintSatisfied(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if expr, err := constraint.Parse(trimmed); err == nil {
				return expr.Eval(func(tag string) bool {
					return tag == runtime.GOOS || tag == runtime.GOARCH ||
						tag == "gc" || (tag == "unix" && unixGOOS[runtime.GOOS])
				})
			}
			continue
		}
		// Constraints must precede the first non-comment line.
		break
	}
	return true
}

// goDirs walks root collecting every directory holding .go files.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// LoadDir loads the package in one directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	abs = filepath.Clean(abs)
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return nil, fmt.Errorf("%s is outside module %s", dir, l.ModPath)
	}
	path := l.ModPath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if !buildConstraintSatisfied(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	for _, f := range files[1:] {
		if f.Name.Name != files[0].Name.Name {
			return nil, fmt.Errorf("%s: mixed package names %s and %s", dir, files[0].Name.Name, f.Name.Name)
		}
	}

	dirs := collectDirectives(l.Fset, files)
	l.scanFrozen(path, files, dirs)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(typeErrs...))
	}

	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Name:  files[0].Name.Name,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Dirs:  dirs,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// scanFrozen records //minoaner:frozen type markers. The scan runs for
// every loaded package — dependencies included — so a rule analyzing
// package A sees the markers package B declares.
func (l *Loader) scanFrozen(path string, files []*ast.File, dirs *Directives) {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declDir := dirs.inDoc(gd.Doc, "frozen")
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				d := dirs.inDoc(ts.Doc, "frozen")
				if d == nil {
					d = declDir
				}
				if d != nil {
					d.used = true
					l.frozen[path+"."+ts.Name.Name] = true
				}
			}
		}
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.load(path, filepath.Join(l.ModRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, err := l.std.Import(path); err == nil {
		return pkg, nil
	}
	// No export data for this toolchain: fall back to type-checking
	// the standard library from source.
	if l.stdSrc == nil {
		l.stdSrc = importer.ForCompiler(l.Fset, "source", nil)
	}
	return l.stdSrc.Import(path)
}
