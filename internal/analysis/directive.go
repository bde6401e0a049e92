package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directives are //minoaner: comments, the one sanctioned way to talk
// to the analyzers from source:
//
//	//minoaner:unordered <why>   suppress maporder on the loop below
//	//minoaner:wallclock <why>   suppress nowallclock on the use below
//	//minoaner:mutator <why>     on a function: it may write fields of
//	                             frozen types declared in its package
//	//minoaner:unchecked <why>   on a section constant: exempt from the
//	                             writer/reader coverage check
//	//minoaner:keep <why>        in an exported func's doc comment:
//	                             exempt from deadexport, naming the
//	                             caller or reason it stays
//	//minoaner:frozen            on a type: its fields are immutable
//	                             once a value is published
//	//minoaner:sections writer=<fn,...> reader=<fn,...>
//	                             on a const group of section IDs: every
//	                             constant must be referenced by a
//	                             writer and a reader function
//
// Suppression verbs require a justification after the verb; a bare
// suppression is itself a finding, as is an unknown verb or a
// directive that matches nothing.
type Directive struct {
	Pos  token.Pos
	Verb string
	Args string
	used bool
}

const directiveMarker = "//minoaner:"

// directiveVerbs maps each known verb to whether it requires a
// justification.
var directiveVerbs = map[string]bool{
	"unordered": true,
	"wallclock": true,
	"mutator":   true,
	"unchecked": true,
	"keep":      true,
	"frozen":    false,
	"sections":  false,
}

// Directives indexes one package's //minoaner: comments by file line.
type Directives struct {
	all    []*Directive
	byLine map[string][]*Directive // "filename:line"
}

func lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// collectDirectives scans every comment in the files.
func collectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	ds := &Directives{byLine: make(map[string][]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directiveMarker) {
					continue
				}
				rest := c.Text[len(directiveMarker):]
				verb, args, _ := strings.Cut(rest, " ")
				d := &Directive{Pos: c.Slash, Verb: verb, Args: strings.TrimSpace(args)}
				ds.all = append(ds.all, d)
				ds.byLine[lineKey(fset.Position(c.Slash))] = append(ds.byLine[lineKey(fset.Position(c.Slash))], d)
			}
		}
	}
	return ds
}

// onLine returns a directive with the verb on exactly the given line.
func (ds *Directives) onLine(pos token.Position, verb string) *Directive {
	for _, d := range ds.byLine[lineKey(pos)] {
		if d.Verb == verb {
			return d
		}
	}
	return nil
}

// forNode returns a directive with the verb on the node's first line
// or on the line immediately above it.
func (ds *Directives) forNode(fset *token.FileSet, n ast.Node, verb string) *Directive {
	pos := fset.Position(n.Pos())
	if d := ds.onLine(pos, verb); d != nil {
		return d
	}
	pos.Line--
	return ds.onLine(pos, verb)
}

// inDoc returns a directive with the verb anywhere inside the doc
// comment group.
func (ds *Directives) inDoc(doc *ast.CommentGroup, verb string) *Directive {
	if doc == nil {
		return nil
	}
	for _, d := range ds.all {
		if d.Verb == verb && d.Pos >= doc.Pos() && d.Pos < doc.End() {
			return d
		}
	}
	return nil
}

// validateDirectives reports unknown verbs and missing justifications
// under the pseudo-rule "directive".
func validateDirectives(pkg *Package, out *[]Diagnostic) {
	for _, d := range pkg.Dirs.all {
		needsWhy, known := directiveVerbs[d.Verb]
		switch {
		case !known:
			*out = append(*out, Diagnostic{
				Pos:     pkg.Fset.Position(d.Pos),
				Rule:    "directive",
				Message: fmt.Sprintf("unknown //minoaner: verb %q (known: frozen, keep, mutator, sections, unchecked, unordered, wallclock)", d.Verb),
			})
			d.used = true // don't double-report as stale
		case needsWhy && d.Args == "":
			*out = append(*out, Diagnostic{
				Pos:     pkg.Fset.Position(d.Pos),
				Rule:    "directive",
				Message: fmt.Sprintf("//minoaner:%s needs a justification after the verb", d.Verb),
			})
		}
	}
}
