package main

import (
	"strings"
	"testing"
)

func TestRunCleanOnRepo(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"../../..."}, &out, &errb); code != 0 {
		t.Fatalf("run(../../...) = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", out.String())
	}
}

func TestRunFindingsExitNonzero(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"../../internal/analysis/testdata/src/nowallclock"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run on golden corpus = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	for _, fragment := range []string{"nowallclock:", "imports math/rand", "time.Now"} {
		if !strings.Contains(out.String(), fragment) {
			t.Errorf("output missing %q:\n%s", fragment, out.String())
		}
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("stderr missing summary:\n%s", errb.String())
	}
}

func TestRunRuleSubset(t *testing.T) {
	var out, errb strings.Builder
	// The maporder corpus is clean under every other rule.
	if code := run([]string{"-rules", "nowallclock", "../../internal/analysis/testdata/src/maporder"}, &out, &errb); code != 0 {
		t.Fatalf("run(-rules nowallclock) = %d, want 0\nstdout:\n%s", code, out.String())
	}
}

func TestRunUnknownRule(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-rules", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("run(-rules bogus) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown rule") {
		t.Errorf("stderr missing unknown-rule message:\n%s", errb.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	for _, name := range []string{"maporder", "frozenwrite", "nowallclock", "sectionswitch", "deadexport"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}
