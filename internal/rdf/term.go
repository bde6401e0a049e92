// Package rdf provides the minimal RDF data model MinoanER operates on:
// IRIs, literals, blank nodes, and triples, together with an N-Triples
// reader and writer.
//
// An entity description in the sense of the MinoanER paper is a
// URI-identifiable set of attribute-value pairs; the rdf package supplies
// the raw triples from which package kb assembles such descriptions.
package rdf

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms that can appear in
// an N-Triples document.
type TermKind uint8

const (
	// IRI is an absolute IRI reference, e.g. <http://example.org/a>.
	IRI TermKind = iota
	// Literal is a (possibly language-tagged or datatyped) literal.
	Literal
	// BlankNode is a document-scoped anonymous node, e.g. _:b0.
	BlankNode
)

// String returns the kind name for diagnostics.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case BlankNode:
		return "BlankNode"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is one RDF term. Value holds the IRI string (without angle
// brackets), the literal lexical form (unescaped), or the blank node label
// (without the "_:" prefix). Lang and Datatype are only meaningful for
// literals; at most one of them is non-empty.
type Term struct {
	Kind     TermKind
	Value    string
	Lang     string // BCP-47 tag for language-tagged literals
	Datatype string // datatype IRI for typed literals
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: BlankNode, Value: label} }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == BlankNode }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t Term) write(b *strings.Builder) {
	switch t.Kind {
	case IRI:
		b.WriteByte('<')
		b.WriteString(escapeIRI(t.Value))
		b.WriteByte('>')
	case Literal:
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		switch {
		case t.Lang != "":
			b.WriteByte('@')
			b.WriteString(t.Lang)
		case t.Datatype != "":
			b.WriteString("^^<")
			b.WriteString(escapeIRI(t.Datatype))
			b.WriteByte('>')
		}
	case BlankNode:
		b.WriteString("_:")
		b.WriteString(t.Value)
	}
}

// Triple is a single RDF statement. Subject is an IRI or blank node,
// Predicate an IRI, Object any term.
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// NewTriple builds a triple from its three terms.
func NewTriple(s, p, o Term) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// String renders the triple as a single N-Triples line (without newline).
func (t Triple) String() string {
	var b strings.Builder
	t.Subject.write(&b)
	b.WriteByte(' ')
	t.Predicate.write(&b)
	b.WriteByte(' ')
	t.Object.write(&b)
	b.WriteString(" .")
	return b.String()
}

// Validate reports the first problem with the triple: structure
// (subjects must be IRIs or blank nodes, predicates IRIs, IRIs
// non-empty) and UTF-8 validity of every term.
func (t Triple) Validate() error {
	if err := t.validateStructure(); err != nil {
		return err
	}
	// The writer's rune-based escaping would silently replace invalid
	// UTF-8 with U+FFFD; reject it here so serialized triples always
	// re-parse to themselves. The parser skips this re-scan — it
	// validates each whole line up front (see parseLine).
	for _, pair := range [...]struct{ what, s string }{
		{"subject", t.Subject.Value},
		{"predicate", t.Predicate.Value},
		{"object", t.Object.Value},
		{"language tag", t.Object.Lang},
		{"datatype", t.Object.Datatype},
	} {
		if !utf8.ValidString(pair.s) {
			return fmt.Errorf("rdf: %s is not valid UTF-8", pair.what)
		}
	}
	return nil
}

// validateStructure checks the triple's shape without the UTF-8 scans;
// the parser uses it on lines already validated as UTF-8.
func (t Triple) validateStructure() error {
	switch t.Subject.Kind {
	case IRI, BlankNode:
		if t.Subject.Value == "" {
			return fmt.Errorf("rdf: empty subject %s", t.Subject.Kind)
		}
	default:
		return fmt.Errorf("rdf: subject must be IRI or blank node, got %s", t.Subject.Kind)
	}
	if t.Predicate.Kind != IRI || t.Predicate.Value == "" {
		return fmt.Errorf("rdf: predicate must be a non-empty IRI, got %s %q", t.Predicate.Kind, t.Predicate.Value)
	}
	if (t.Object.Kind == IRI || t.Object.Kind == BlankNode) && t.Object.Value == "" {
		return fmt.Errorf("rdf: empty object %s", t.Object.Kind)
	}
	return nil
}

func escapeIRI(s string) string {
	if !strings.ContainsAny(s, "<>\"{}|^`\\\n\r\t ") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		// IRIREF allows only \u / \U escapes, so whitespace must use
		// them too: a "\t" inside angle brackets would not re-parse.
		case '<', '>', '"', '{', '}', '|', '^', '`', '\\', '\n', '\r', '\t', ' ':
			fmt.Fprintf(&b, "\\u%04X", r)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString("\\\"")
		case '\\':
			b.WriteString("\\\\")
		case '\n':
			b.WriteString("\\n")
		case '\r':
			b.WriteString("\\r")
		case '\t':
			b.WriteString("\\t")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
