// Package analysis is the engine behind minoanervet, the repo's own
// static-analysis suite. Every bit-identity guarantee this codebase
// makes — identical matches across worker counts, prepared vs. full
// plans, and rebuild-equivalent epochs — rests on conventions that the
// compiler does not enforce: map iteration order must never reach
// ordered output, published epoch state must never be mutated in
// place, and wall-clock or randomness must never feed the match path.
// The rules in this package prove those conventions per-file over the
// parsed and type-checked source, so a violation is a CI failure
// instead of a flaky benchmark. One more rule, deadexport, keeps the
// internal packages cut to their callers.
//
// The engine is stdlib-only (go/parser + go/types + go/importer): see
// Loader for how module-local packages are resolved without external
// dependencies. Findings are reported as position-sorted Diagnostics;
// intentional exceptions are annotated in the source with //minoaner:
// directives (see directive.go), each carrying a justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one finding, addressed by source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// A Rule checks one invariant over every analyzed package.
type Rule struct {
	Name string
	Doc  string
	run  func(*Pass)
}

// Rules returns the full suite in canonical order.
func Rules() []*Rule {
	return []*Rule{MapOrder, FrozenWrite, NoWallClock, SectionSwitch, DeadExport}
}

// RuleByName resolves a rule by its name, or nil.
func RuleByName(name string) *Rule {
	for _, r := range Rules() {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Config selects the rules to run and the packages they treat as
// determinism-critical.
type Config struct {
	// Critical lists the import paths of the packages whose code sits
	// on the deterministic match path. maporder and nowallclock only
	// fire inside these (plus any package under a testdata directory,
	// which is always treated as critical so golden packages exercise
	// the rules).
	Critical []string
	// Rules are the rules to run; nil means the full suite.
	Rules []*Rule
}

// DefaultConfig returns the repo's standing configuration: the five
// packages every match result flows through.
func DefaultConfig() Config {
	return Config{Critical: []string{
		"minoaner",
		"minoaner/internal/pipeline",
		"minoaner/internal/blocking",
		"minoaner/internal/kb",
		"minoaner/internal/core",
		"minoaner/internal/parallel",
	}}
}

// Pass is one rule's view of one package under analysis.
type Pass struct {
	Rule *Rule
	Pkg  *Package
	cfg  *Config
	ldr  *Loader
	out  *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Rule.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Critical reports whether the package under analysis is on the
// determinism-critical list. Packages under a testdata directory are
// always critical.
func (p *Pass) Critical() bool {
	if strings.Contains(p.Pkg.Path, "/testdata/") {
		return true
	}
	for _, c := range p.cfg.Critical {
		if p.Pkg.Path == c {
			return true
		}
	}
	return false
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Uses[id]
}

// suppressed reports whether a directive with the given verb sits on
// the node's first line or the line above it, marking the directive
// used when it does.
func (p *Pass) suppressed(verb string, n ast.Node) bool {
	if d := p.Pkg.Dirs.forNode(p.Pkg.Fset, n, verb); d != nil {
		d.used = true
		return true
	}
	return false
}

// Run executes the configured rules over the given packages and
// returns all findings sorted by position. Directive validation (and,
// when the full suite runs, stale-directive detection) is reported
// under the pseudo-rule "directive".
func Run(l *Loader, cfg Config, pkgs []*Package) []Diagnostic {
	rules := cfg.Rules
	if rules == nil {
		rules = Rules()
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		validateDirectives(pkg, &out)
		for _, r := range rules {
			r.run(&Pass{Rule: r, Pkg: pkg, cfg: &cfg, ldr: l, out: &out})
		}
		// A suppression that no longer matches a finding is rot: the
		// next reader assumes the hazard it names still exists. Only
		// meaningful when every rule had the chance to consume it.
		if len(rules) == len(Rules()) {
			for _, d := range pkg.Dirs.all {
				if !d.used {
					out = append(out, Diagnostic{
						Pos:     pkg.Fset.Position(d.Pos),
						Rule:    "directive",
						Message: fmt.Sprintf("//minoaner:%s matches no declaration or finding; remove the stale directive", d.Verb),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}
