package analysis_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"minoaner/internal/analysis"
)

// The golden corpora under testdata/src record their expected findings
// as comments:
//
//	code // want `regex`
//	// want+1 `regex`   (finding on the next line)
//	// want-1 `regex`   (finding on the previous line)
//
// The regex is matched against "rule: message". Each want must match
// exactly one diagnostic on its line and every diagnostic must be
// claimed by a want, so the corpus pins both findings and non-findings.
var wantRE = regexp.MustCompile(`^//\s*want([+-]\d+)?\s+(.+?)\s*$`)

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, pkgs []*analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Slash)
					offset := 0
					if m[1] != "" {
						offset, _ = strconv.Atoi(m[1])
					}
					expr := strings.Trim(m[2], "`\"")
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line + offset, re: re})
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, wants []*want, diags []analysis.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		text := d.Rule + ": " + d.Message
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

func loadGolden(t *testing.T, dirs ...string) (*analysis.Loader, []*analysis.Package) {
	t.Helper()
	ldr, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := ldr.Load(dirs...)
	if err != nil {
		t.Fatalf("Load(%v): %v", dirs, err)
	}
	return ldr, pkgs
}

// goldenDirs maps each corpus to the directories it spans; frozenwrite
// needs its cross-package consumer loaded alongside.
var goldenDirs = map[string][]string{
	"maporder":      {"testdata/src/maporder"},
	"frozenwrite":   {"testdata/src/frozenwrite", "testdata/src/frozenuse"},
	"nowallclock":   {"testdata/src/nowallclock"},
	"sectionswitch": {"testdata/src/sectionswitch"},
	"directive":     {"testdata/src/directive"},
	"deadexport":    {"testdata/src/deadexport", "testdata/src/deadexportuse"},
}

func TestGolden(t *testing.T) {
	for name, dirs := range goldenDirs {
		t.Run(name, func(t *testing.T) {
			ldr, pkgs := loadGolden(t, dirs...)
			diags := analysis.Run(ldr, analysis.DefaultConfig(), pkgs)
			checkWants(t, collectWants(t, pkgs), diags)
		})
	}
}

// TestRuleContributes proves each golden corpus actually depends on
// its rule: disabling the rule must lose findings, so the golden test
// above would fail if the rule were broken or skipped.
func TestRuleContributes(t *testing.T) {
	for _, r := range analysis.Rules() {
		t.Run(r.Name, func(t *testing.T) {
			dirs := goldenDirs[r.Name]
			if dirs == nil {
				t.Fatalf("no golden corpus for rule %s", r.Name)
			}
			ldr, pkgs := loadGolden(t, dirs...)
			full := analysis.Run(ldr, analysis.DefaultConfig(), pkgs)

			cfg := analysis.DefaultConfig()
			for _, other := range analysis.Rules() {
				if other != r {
					cfg.Rules = append(cfg.Rules, other)
				}
			}
			without := analysis.Run(ldr, cfg, pkgs)
			if len(without) >= len(full) {
				t.Fatalf("disabling %s kept %d of %d findings; the corpus does not exercise the rule",
					r.Name, len(without), len(full))
			}
			for _, d := range without {
				if d.Rule == r.Name {
					t.Errorf("disabled rule still reported: %s", d)
				}
			}
		})
	}
}

// TestRepoClean is the self-test the CI gate relies on: the repository
// itself must carry zero findings under the default configuration.
func TestRepoClean(t *testing.T) {
	ldr, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := ldr.Load(ldr.ModRoot + "/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	diags := analysis.Run(ldr, analysis.DefaultConfig(), pkgs)
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// TestDiagnosticsSorted pins the position order of the output on a
// corpus with findings across several lines and files.
func TestDiagnosticsSorted(t *testing.T) {
	ldr, pkgs := loadGolden(t, "testdata/src/frozenwrite", "testdata/src/frozenuse")
	diags := analysis.Run(ldr, analysis.DefaultConfig(), pkgs)
	if len(diags) < 2 {
		t.Fatalf("want several findings, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) ||
			(a.Filename == b.Filename && a.Line == b.Line && a.Column > b.Column) {
			t.Errorf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
}

// TestCriticalList pins the critical-package set: a package silently
// dropping off the list would disable maporder and nowallclock there.
func TestCriticalList(t *testing.T) {
	cfg := analysis.DefaultConfig()
	for _, p := range []string{
		"minoaner",
		"minoaner/internal/pipeline",
		"minoaner/internal/blocking",
		"minoaner/internal/kb",
		"minoaner/internal/core",
		"minoaner/internal/parallel",
	} {
		found := false
		for _, c := range cfg.Critical {
			if c == p {
				found = true
			}
		}
		if !found {
			t.Errorf("package %s missing from the default critical list", p)
		}
	}
}
