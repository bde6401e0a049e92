// Command minoanervet vets the repository against the determinism and
// epoch-immutability invariants every bit-identity guarantee rests on,
// and keeps the internal packages cut to their callers.
// It walks the named packages (default ./...), type-checks them with
// the standard library only, and runs the internal/analysis rule
// suite:
//
//	maporder      map iteration order must not reach ordered output
//	frozenwrite   //minoaner:frozen state is immutable once published
//	nowallclock   no wall-clock or randomness on the match path
//	sectionswitch codec section IDs wired into writer AND reader
//	deadexport    exported internal funcs and methods have a non-test caller
//
// deadexport builds its use set from the whole module whatever
// packages are named, so a run over one package reports what a run
// over ./... reports for it.
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors. Findings
// print position-sorted as file:line:col: rule: message.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"minoaner/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("minoanervet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list the available rules and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: minoanervet [-rules r1,r2] [package-dir|dir/... ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, r := range analysis.Rules() {
			fmt.Fprintf(stdout, "%-14s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	cfg := analysis.DefaultConfig()
	if *rulesFlag != "" {
		for _, name := range strings.Split(*rulesFlag, ",") {
			r := analysis.RuleByName(strings.TrimSpace(name))
			if r == nil {
				fmt.Fprintf(stderr, "minoanervet: unknown rule %q (have: %s)\n", name, ruleNames())
				return 2
			}
			cfg.Rules = append(cfg.Rules, r)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "minoanervet: %v\n", err)
		return 2
	}
	ldr, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "minoanervet: %v\n", err)
		return 2
	}
	pkgs, err := ldr.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "minoanervet: %v\n", err)
		return 2
	}

	diags := analysis.Run(ldr, cfg, pkgs)
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "minoanervet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

func ruleNames() string {
	var names []string
	for _, r := range analysis.Rules() {
		names = append(names, r.Name)
	}
	return strings.Join(names, ", ")
}
