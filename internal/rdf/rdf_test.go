package rdf

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// ParseString parses an entire N-Triples document held in a string.
func ParseString(doc string) ([]Triple, error) {
	return NewReader(strings.NewReader(doc)).ReadAll()
}

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", NewIRI("http://ex.org/a"), IRI, "<http://ex.org/a>"},
		{"literal", NewLiteral("hello"), Literal, `"hello"`},
		{"lang literal", NewLangLiteral("bonjour", "fr"), Literal, `"bonjour"@fr`},
		{"typed literal", NewTypedLiteral("5", "http://www.w3.org/2001/XMLSchema#int"), Literal, `"5"^^<http://www.w3.org/2001/XMLSchema#int>`},
		{"blank", NewBlank("b0"), BlankNode, "_:b0"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Errorf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if got := tc.term.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
		})
	}
}

func TestTermPredicates(t *testing.T) {
	if NewIRI("x").Kind != IRI || NewIRI("x").IsLiteral() || NewIRI("x").IsBlank() {
		t.Error("IRI predicates wrong")
	}
	if !NewLiteral("x").IsLiteral() || NewLiteral("x").Kind == IRI {
		t.Error("literal predicates wrong")
	}
	if !NewBlank("x").IsBlank() {
		t.Error("blank predicates wrong")
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "IRI" || Literal.String() != "Literal" || BlankNode.String() != "BlankNode" {
		t.Error("kind names wrong")
	}
	if got := TermKind(9).String(); got != "TermKind(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("v"))
	want := `<http://a> <http://p> "v" .`
	if got := tr.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTripleValidate(t *testing.T) {
	ok := NewTriple(NewIRI("s"), NewIRI("p"), NewLiteral("o"))
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid triple rejected: %v", err)
	}
	bad := []Triple{
		NewTriple(NewLiteral("s"), NewIRI("p"), NewLiteral("o")),
		NewTriple(NewIRI(""), NewIRI("p"), NewLiteral("o")),
		NewTriple(NewIRI("s"), NewLiteral("p"), NewLiteral("o")),
		NewTriple(NewIRI("s"), NewIRI(""), NewLiteral("o")),
		NewTriple(NewIRI("s"), NewBlank("p"), NewLiteral("o")),
		NewTriple(NewIRI("s"), NewIRI("p"), NewIRI("")),
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid triple accepted: %v", i, tr)
		}
	}
	blankSubj := NewTriple(NewBlank("b"), NewIRI("p"), NewBlank("o"))
	if err := blankSubj.Validate(); err != nil {
		t.Errorf("blank subject/object rejected: %v", err)
	}
}

func TestParseBasic(t *testing.T) {
	doc := `
# a comment
<http://ex.org/e1> <http://ex.org/name> "Joe's Diner" .
<http://ex.org/e1> <http://ex.org/locatedIn> <http://ex.org/athens> .

_:b0 <http://ex.org/label> "blank"@en .
<http://ex.org/e2> <http://ex.org/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
`
	triples, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 4 {
		t.Fatalf("got %d triples, want 4", len(triples))
	}
	if triples[0].Object.Value != "Joe's Diner" {
		t.Errorf("literal = %q", triples[0].Object.Value)
	}
	if triples[1].Object.Kind != IRI {
		t.Error("object of second triple should be IRI")
	}
	if triples[2].Object.Lang != "en" {
		t.Errorf("lang = %q, want en", triples[2].Object.Lang)
	}
	if !triples[2].Subject.IsBlank() || triples[2].Subject.Value != "b0" {
		t.Errorf("blank subject = %v", triples[2].Subject)
	}
	if triples[3].Object.Datatype != "http://www.w3.org/2001/XMLSchema#integer" {
		t.Errorf("datatype = %q", triples[3].Object.Datatype)
	}
}

func TestParseEscapes(t *testing.T) {
	doc := `<http://e/s> <http://e/p> "line1\nline2\ttab \"quoted\" back\\slash é \U0001F600" .`
	triples, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := "line1\nline2\ttab \"quoted\" back\\slash é \U0001F600"
	if got := triples[0].Object.Value; got != want {
		t.Errorf("unescaped = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"no dot", `<http://a> <http://p> "x"`},
		{"unterminated iri", `<http://a <http://p> "x" .`},
		{"unterminated literal", `<http://a> <http://p> "x .`},
		{"literal subject", `"s" <http://p> "x" .`},
		{"bare word", `hello <http://p> "x" .`},
		{"trailing garbage", `<http://a> <http://p> "x" . extra`},
		{"missing object", `<http://a> <http://p> .`},
		{"empty lang", `<http://a> <http://p> "x"@ .`},
		{"bad escape", `<http://a> <http://p> "x\q" .`},
		{"truncated unicode", `<http://a> <http://p> "x\u00" .`},
		{"bad unicode", `<http://a> <http://p> "x\uZZZZ" .`},
		{"surrogate rune", `<http://a> <http://p> "x\uD800" .`},
		{"datatype not iri", `<http://a> <http://p> "x"^^y .`},
		{"empty iri", `<> <http://p> "x" .`},
		{"space in iri", `<http://a b> <http://p> "x" .`},
		{"lt in iri", `<http://a<b> <http://p> "x" .`},
		{"quote in iri", `<http://a"b> <http://p> "x" .`},
		{"empty blank label", `_: <http://p> "x" .`},
		{"dangling escape", `<http://a> <http://p> "x\`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.doc)
			if err == nil {
				t.Fatalf("expected error for %q", tc.doc)
			}
			var pe *ParseError
			if !asParseError(err, &pe) {
				t.Fatalf("error type = %T, want *ParseError", err)
			}
			if pe.Line != 1 {
				t.Errorf("line = %d, want 1", pe.Line)
			}
		})
	}
}

func asParseError(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestParseErrorMessage(t *testing.T) {
	_, err := ParseString(`bogus`)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error message %q lacks line info", err.Error())
	}
}

func TestLenientMode(t *testing.T) {
	doc := `<http://a> <http://p> "ok" .
garbage line here
<http://b> <http://p> "ok2" .
`
	r := NewReader(strings.NewReader(doc))
	r.SetLenient(true)
	triples, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 2 {
		t.Fatalf("got %d triples, want 2", len(triples))
	}
	if r.Skipped() != 1 {
		t.Errorf("skipped = %d, want 1", r.Skipped())
	}
}

func TestReaderNextEOF(t *testing.T) {
	r := NewReader(strings.NewReader("# only a comment\n"))
	_, err := r.Next()
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestRoundTrip(t *testing.T) {
	triples := []Triple{
		NewTriple(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewLiteral("plain value")),
		NewTriple(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewLangLiteral("väl\"ue\n", "en-GB")),
		NewTriple(NewBlank("n1"), NewIRI("http://ex.org/p"), NewTypedLiteral("3.14", "http://www.w3.org/2001/XMLSchema#double")),
		NewTriple(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewIRI("http://ex.org/o")),
		NewTriple(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewBlank("n2")),
		NewTriple(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewLiteral("tab\tand\\backslash")),
	}
	var sb strings.Builder
	if err := WriteAll(&sb, triples); err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(triples) {
		t.Fatalf("got %d triples back, want %d", len(back), len(triples))
	}
	for i := range triples {
		if back[i] != triples[i] {
			t.Errorf("triple %d: got %+v, want %+v", i, back[i], triples[i])
		}
	}
}

// TestRoundTripProperty checks Parse(Write(t)) == t for arbitrary literal
// content and IRIs built from arbitrary path fragments.
func TestRoundTripProperty(t *testing.T) {
	f := func(lex string, lang bool) bool {
		if !validUTF8(lex) {
			return true // skip invalid UTF-8 inputs; scanner normalizes them
		}
		obj := NewLiteral(lex)
		if lang {
			obj = NewLangLiteral(lex, "en")
		}
		tr := NewTriple(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), obj)
		var sb strings.Builder
		if err := WriteAll(&sb, []Triple{tr}); err != nil {
			return false
		}
		back, err := ParseString(sb.String())
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0] == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func validUTF8(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false
		}
	}
	return true
}

func TestWriterRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	err := w.Write(NewTriple(NewLiteral("bad"), NewIRI("p"), NewLiteral("o")))
	if err == nil {
		t.Fatal("invalid triple accepted")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("wrote %q for a rejected triple", sb.String())
	}
}

func TestWriterCount(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	for i := 0; i < 3; i++ {
		if err := w.Write(NewTriple(NewIRI("s"), NewIRI("p"), NewLiteral("o"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 3 {
		t.Errorf("wrote %d lines, want 3", lines)
	}
}

func TestEscapeIRIRoundTrip(t *testing.T) {
	// IRIs containing characters that must be \u-escaped.
	tr := NewTriple(NewIRI("http://ex.org/a<b>c"), NewIRI("http://p"), NewLiteral("o"))
	var sb strings.Builder
	if err := WriteAll(&sb, []Triple{tr}); err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Subject.Value != "http://ex.org/a<b>c" {
		t.Errorf("round-tripped IRI = %q", back[0].Subject.Value)
	}
}

func TestLongLines(t *testing.T) {
	long := strings.Repeat("x", 200_000)
	doc := `<http://a> <http://p> "` + long + `" .`
	triples, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples[0].Object.Value) != 200_000 {
		t.Error("long literal truncated")
	}
}

func BenchmarkParseLine(b *testing.B) {
	line := `<http://ex.org/entity/12345> <http://ex.org/ontology/name> "Some Fairly Long Entity Name With Tokens" .`
	doc := strings.Repeat(line+"\n", 1000)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(strings.NewReader(doc))
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
