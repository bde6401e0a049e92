package kb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"minoaner/internal/binio"
	"minoaner/internal/rdf"
)

// TestSourcesRejectTokenizerOptions: the sources section opens with
// the minimum token length and stopword count of a tokenizer option
// set, always 0 and 0. An image carrying anything else was tokenized
// under options no build applies, so the reader refuses it as corrupt.
func TestSourcesRejectTokenizerOptions(t *testing.T) {
	secs := imageSections(t, buildTestKB(t))
	rest := secs[secSources-1][2:] // past the two zero varints
	if _, err := ReadBinary(mkb1Image(t, secs)); err != nil {
		t.Fatalf("unforged image: %v", err)
	}
	for name, opts := range map[string]func(*binio.Writer){
		"min_length_3": func(w *binio.Writer) { w.Int(3); w.Int(0) },
		"one_stopword": func(w *binio.Writer) { w.Int(0); w.Int(1); w.Str("the") },
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w := binio.NewWriter(&buf)
			opts(w)
			w.Raw(rest)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			forged := secs
			forged[secSources-1] = buf.Bytes()
			if _, err := ReadBinary(mkb1Image(t, forged)); !errors.Is(err, errCorrupt) {
				t.Fatalf("ReadBinary = %v, want errCorrupt", err)
			}
		})
	}
}

// TestPredicateInBothRoles: a predicate used with literal and entity
// objects keeps independent attribute and relation statistics.
func TestPredicateInBothRoles(t *testing.T) {
	triples := []rdf.Triple{
		tr("http://e/x", "http://v/ref", lit("plain text")),
		tr("http://e/x", "http://v/ref", iri("http://e/y")),
		tr("http://e/y", "http://v/name", lit("target")),
	}
	kb, err := FromTriples("both", triples)
	if err != nil {
		t.Fatal(err)
	}
	pid, ok := kb.PredID("http://v/ref")
	if !ok {
		t.Fatal("ref predicate missing")
	}
	if kb.AttrStat(pid) == nil {
		t.Error("attribute role missing")
	}
	if kb.RelStat(pid) == nil {
		t.Error("relation role missing")
	}
	if kb.NumAttributes() != 2 || kb.NumRelations() != 1 {
		t.Errorf("attrs=%d rels=%d", kb.NumAttributes(), kb.NumRelations())
	}
}

// TestSelfLoop: an entity relating to itself is handled without
// panicking and shows up in both edge directions.
func TestSelfLoop(t *testing.T) {
	triples := []rdf.Triple{
		tr("http://e/x", "http://v/knows", iri("http://e/x")),
		tr("http://e/x", "http://v/name", lit("loop")),
	}
	kb, err := FromTriples("loop", triples)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := kb.Lookup("http://e/x")
	e := kb.Entity(x)
	if len(e.Out) != 1 || len(e.In) != 1 || e.Out[0].Target != x {
		t.Errorf("self loop edges: out=%v in=%v", e.Out, e.In)
	}
	if nbrs := kb.TopNeighbors(x, 3); len(nbrs) != 1 || nbrs[0] != x {
		t.Errorf("self neighbors = %v", nbrs)
	}
}

// TestUnicodeURIsAndValues: non-ASCII content survives the pipeline.
func TestUnicodeContent(t *testing.T) {
	triples := []rdf.Triple{
		tr("http://e/αθήνα", "http://v/όνομα", lit("Ακρόπολη Αθηνών")),
	}
	kb, err := FromTriples("gr", triples)
	if err != nil {
		t.Fatal(err)
	}
	x, ok := kb.Lookup("http://e/αθήνα")
	if !ok {
		t.Fatal("unicode URI lost")
	}
	got := kb.Tokens(x)
	if !reflect.DeepEqual(got, []string{"αθηνών", "ακρόπολη"}) {
		t.Errorf("tokens = %v", got)
	}
}
