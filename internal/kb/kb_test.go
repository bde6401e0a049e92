package kb

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"minoaner/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }
func tr(s, p string, o rdf.Term) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), o)
}

// EF returns the entity frequency of a token: the number of entities
// whose token bag holds it. Unknown tokens have frequency 0.
func (kb *KB) EF(token string) int {
	kb.materialize()
	n := 0
	for i := range kb.entities {
		if slices.Contains(kb.Tokens(EntityID(i)), token) {
			n++
		}
	}
	return n
}

// Len returns the number of triples recorded so far. Non-consecutive
// duplicates are only removed at Build time, so this is an upper bound
// on the distinct count.
func (b *Builder) Len() int { return len(b.triples) }

// RelStat returns the statistics of a relation predicate, or nil.
func (kb *KB) RelStat(pred int32) *PredStat {
	kb.materialize()
	return kb.relStats[pred]
}

// buildTestKB creates a small restaurant-flavoured KB:
//
//	r1 --locatedIn--> a1, r2 --locatedIn--> a1
//	r1: name "Joe's Diner", phone "555-1234"
//	r2: name "Central Cafe"
//	a1: street "Main Street 5"
func buildTestKB(t testing.TB) *KB {
	t.Helper()
	triples := []rdf.Triple{
		tr("http://e/r1", "http://v/name", lit("Joe's Diner")),
		tr("http://e/r1", "http://v/phone", lit("555-1234")),
		tr("http://e/r1", "http://v/locatedIn", iri("http://e/a1")),
		tr("http://e/r2", "http://v/name", lit("Central Cafe")),
		tr("http://e/r2", "http://v/locatedIn", iri("http://e/a1")),
		tr("http://e/a1", "http://v/street", lit("Main Street 5")),
		tr("http://e/r1", RDFType, iri("http://v/Restaurant")),
		tr("http://e/r2", RDFType, iri("http://v/Restaurant")),
		tr("http://e/a1", RDFType, iri("http://v/Address")),
	}
	kb, err := FromTriples("test", triples)
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestBuildBasics(t *testing.T) {
	kb := buildTestKB(t)
	if kb.Len() != 3 {
		t.Fatalf("entities = %d, want 3", kb.Len())
	}
	if kb.NumTriples() != 9 {
		t.Errorf("triples = %d, want 9", kb.NumTriples())
	}
	if kb.NumAttributes() != 3 { // name, phone, street
		t.Errorf("attributes = %d, want 3", kb.NumAttributes())
	}
	if kb.NumRelations() != 1 { // locatedIn
		t.Errorf("relations = %d, want 1", kb.NumRelations())
	}
	if kb.NumTypes() != 2 {
		t.Errorf("types = %d, want 2", kb.NumTypes())
	}
	if kb.NumVocabularies() != 2 { // http://v/ and the rdf namespace
		t.Errorf("vocabularies = %d, want 2", kb.NumVocabularies())
	}
}

func TestLookupAndURI(t *testing.T) {
	kb := buildTestKB(t)
	id, ok := kb.Lookup("http://e/r1")
	if !ok {
		t.Fatal("r1 not found")
	}
	if kb.URI(id) != "http://e/r1" {
		t.Errorf("URI mismatch: %s", kb.URI(id))
	}
	if _, ok := kb.Lookup("http://e/nope"); ok {
		t.Error("nonexistent URI found")
	}
}

func TestTokensAndEF(t *testing.T) {
	kb := buildTestKB(t)
	r1, _ := kb.Lookup("http://e/r1")
	toks := kb.Tokens(r1)
	want := []string{"1234", "555", "diner", "joe", "s"}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("tokens = %v, want %v", toks, want)
	}
	if kb.EF("diner") != 1 {
		t.Errorf("EF(diner) = %d, want 1", kb.EF("diner"))
	}
	if kb.EF("nonexistent") != 0 {
		t.Errorf("EF(nonexistent) = %d, want 0", kb.EF("nonexistent"))
	}
	// avg tokens: r1 has 5, r2 has 2 (central, cafe), a1 has 3 (main, street, 5)
	wantAvg := float64(5+2+3) / 3
	if got := kb.AvgTokens(); math.Abs(got-wantAvg) > 1e-9 {
		t.Errorf("AvgTokens = %f, want %f", got, wantAvg)
	}
}

func TestEdges(t *testing.T) {
	kb := buildTestKB(t)
	r1, _ := kb.Lookup("http://e/r1")
	a1, _ := kb.Lookup("http://e/a1")
	e := kb.Entity(r1)
	if len(e.Out) != 1 || e.Out[0].Target != a1 {
		t.Fatalf("r1 out edges = %+v", e.Out)
	}
	if kb.Pred(e.Out[0].Pred) != "http://v/locatedIn" {
		t.Errorf("relation pred = %s", kb.Pred(e.Out[0].Pred))
	}
	addr := kb.Entity(a1)
	if len(addr.In) != 2 {
		t.Fatalf("a1 in edges = %d, want 2", len(addr.In))
	}
	if len(addr.Out) != 0 {
		t.Errorf("a1 out edges = %d, want 0", len(addr.Out))
	}
}

func TestTypesTracked(t *testing.T) {
	kb := buildTestKB(t)
	r1, _ := kb.Lookup("http://e/r1")
	if got := kb.Entity(r1).Types; len(got) != 1 || got[0] != "http://v/Restaurant" {
		t.Errorf("types = %v", got)
	}
	// rdf:type must not appear as attribute or relation.
	if _, ok := kb.PredID(RDFType); ok {
		t.Error("rdf:type interned as a predicate")
	}
	// Type IRIs must not contribute tokens.
	for _, tok := range kb.Tokens(r1) {
		if tok == "restaurant" {
			t.Error("type IRI leaked into tokens")
		}
	}
}

func TestImportance(t *testing.T) {
	kb := buildTestKB(t)
	// name: support 2/3, discriminability 2/2=1 → hm(2/3,1)=0.8
	pid, ok := kb.PredID("http://v/name")
	if !ok {
		t.Fatal("name predicate missing")
	}
	st := kb.AttrStat(pid)
	if st == nil {
		t.Fatal("no stat for name")
	}
	if st.Entities != 2 || st.Distinct != 2 {
		t.Fatalf("name stat = %+v", st)
	}
	if math.Abs(st.Importance-0.8) > 1e-9 {
		t.Errorf("name importance = %f, want 0.8", st.Importance)
	}
	// locatedIn relation: support 2/3, discriminability 1/2 → hm = 2*(2/3)*(1/2)/(2/3+1/2) = (2/3)/(7/6)=4/7
	lid, _ := kb.PredID("http://v/locatedIn")
	rst := kb.RelStat(lid)
	if rst == nil {
		t.Fatal("no stat for locatedIn")
	}
	if want := 4.0 / 7.0; math.Abs(rst.Importance-want) > 1e-9 {
		t.Errorf("locatedIn importance = %f, want %f", rst.Importance, want)
	}
}

func TestAttrStatsSorted(t *testing.T) {
	kb := buildTestKB(t)
	stats := kb.AttrStats()
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Importance < stats[i].Importance {
			t.Errorf("stats not sorted: %f < %f at %d", stats[i-1].Importance, stats[i].Importance, i)
		}
	}
}

func TestTopNameAttributes(t *testing.T) {
	kb := buildTestKB(t)
	top := kb.TopNameAttributes(2)
	if len(top) != 2 {
		t.Fatalf("got %d name attrs, want 2", len(top))
	}
	// k larger than available attributes
	all := kb.TopNameAttributes(100)
	if len(all) != 3 {
		t.Errorf("got %d, want all 3", len(all))
	}
	if got := kb.TopNameAttributes(0); len(got) != 0 {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestNames(t *testing.T) {
	kb := buildTestKB(t)
	pid, _ := kb.PredID("http://v/name")
	r1, _ := kb.Lookup("http://e/r1")
	names := kb.Names(r1, []int32{pid})
	if !reflect.DeepEqual(names, []string{"joe s diner"}) {
		t.Errorf("names = %v", names)
	}
	a1, _ := kb.Lookup("http://e/a1")
	if got := kb.Names(a1, []int32{pid}); got != nil {
		t.Errorf("a1 names = %v, want nil", got)
	}
	if got := kb.Names(r1, nil); got != nil {
		t.Errorf("nil attrs → %v, want nil", got)
	}
}

func TestNamesDeduplicate(t *testing.T) {
	triples := []rdf.Triple{
		tr("http://e/x", "http://v/name", lit("Same Name")),
		tr("http://e/x", "http://v/name", lit("same  name!")),
	}
	kb, err := FromTriples("dup", triples)
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := kb.PredID("http://v/name")
	x, _ := kb.Lookup("http://e/x")
	names := kb.Names(x, []int32{pid})
	if len(names) != 1 {
		t.Errorf("names = %v, want 1 deduplicated", names)
	}
}

func TestTopNeighbors(t *testing.T) {
	kb := buildTestKB(t)
	r1, _ := kb.Lookup("http://e/r1")
	a1, _ := kb.Lookup("http://e/a1")
	nbrs := kb.TopNeighbors(r1, 3)
	if !reflect.DeepEqual(nbrs, []EntityID{a1}) {
		t.Errorf("neighbors of r1 = %v, want [%d]", nbrs, a1)
	}
	// a1 has two in-neighbors via locatedIn.
	nbrs = kb.TopNeighbors(a1, 1)
	if len(nbrs) != 2 {
		t.Errorf("neighbors of a1 = %v, want 2 entries", nbrs)
	}
	if got := kb.TopNeighbors(r1, 0); got != nil {
		t.Errorf("n=0 → %v", got)
	}
}

func TestTopNeighborsRelationCutoff(t *testing.T) {
	// x has edges via two relations; rel "a" is more important
	// (higher discriminability). With n=1 only rel-a neighbors remain.
	triples := []rdf.Triple{
		tr("http://e/x", "http://v/a", iri("http://e/y1")),
		tr("http://e/x2", "http://v/a", iri("http://e/y2")),
		tr("http://e/x", "http://v/b", iri("http://e/y3")),
		tr("http://e/x2", "http://v/b", iri("http://e/y3")),
		tr("http://e/y1", "http://v/t", lit("v1")),
		tr("http://e/y2", "http://v/t", lit("v2")),
		tr("http://e/y3", "http://v/t", lit("v3")),
	}
	kb, err := FromTriples("rels", triples)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := kb.Lookup("http://e/x")
	y1, _ := kb.Lookup("http://e/y1")
	nbrs := kb.TopNeighbors(x, 1)
	if !reflect.DeepEqual(nbrs, []EntityID{y1}) {
		t.Errorf("top-1-relation neighbors = %v, want [%d] (via rel a)", nbrs, y1)
	}
	nbrs = kb.TopNeighbors(x, 2)
	if len(nbrs) != 2 {
		t.Errorf("top-2-relation neighbors = %v, want 2", nbrs)
	}
}

func TestTopRelations(t *testing.T) {
	kb := buildTestKB(t)
	rels := kb.RelStats()
	if len(rels) != 1 {
		t.Fatalf("relations = %v", rels)
	}
	if kb.Pred(rels[0].Pred) != "http://v/locatedIn" {
		t.Errorf("top relation = %s", kb.Pred(rels[0].Pred))
	}
}

func TestDanglingURIBecomesAttribute(t *testing.T) {
	triples := []rdf.Triple{
		tr("http://e/x", "http://v/homepage", iri("http://www.example.com/JoesDiner")),
	}
	kb, err := FromTriples("dangling", triples)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 1 {
		t.Fatalf("entities = %d, want 1 (object URI is not a subject)", kb.Len())
	}
	if kb.NumRelations() != 0 {
		t.Errorf("relations = %d, want 0", kb.NumRelations())
	}
	if kb.NumAttributes() != 1 {
		t.Errorf("attributes = %d, want 1", kb.NumAttributes())
	}
	x, _ := kb.Lookup("http://e/x")
	if toks := kb.Tokens(x); !reflect.DeepEqual(toks, []string{"joesdiner"}) {
		t.Errorf("tokens = %v, want [joesdiner]", toks)
	}
}

func TestDuplicateTriplesIgnored(t *testing.T) {
	b := NewBuilder("dup")
	for i := 0; i < 3; i++ {
		if err := b.Add(tr("http://e/x", "http://v/p", lit("v"))); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 1 {
		t.Fatalf("builder len = %d, want 1", b.Len())
	}
	kb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if kb.NumTriples() != 1 {
		t.Errorf("triples = %d, want 1", kb.NumTriples())
	}
}

func TestBuilderRejectsInvalid(t *testing.T) {
	b := NewBuilder("bad")
	err := b.Add(rdf.NewTriple(lit("s"), iri("p"), lit("o")))
	if err == nil {
		t.Fatal("invalid triple accepted")
	}
}

func TestEmptyKB(t *testing.T) {
	kb, err := FromTriples("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 0 || kb.AvgTokens() != 0 || kb.NumAttributes() != 0 {
		t.Errorf("empty KB stats wrong: %v", kb)
	}
}

func TestBlankNodeSubject(t *testing.T) {
	triples := []rdf.Triple{
		rdf.NewTriple(rdf.NewBlank("b0"), iri("http://v/name"), lit("Anon")),
		tr("http://e/x", "http://v/knows", rdf.NewBlank("b0")),
	}
	kb, err := FromTriples("blank", triples)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 2 {
		t.Fatalf("entities = %d, want 2", kb.Len())
	}
	if kb.NumRelations() != 1 {
		t.Errorf("relations = %d, want 1 (edge to blank entity)", kb.NumRelations())
	}
}

// A blank node _:x and an IRI spelled "_:x" are different terms with
// one entity key. As subjects they are one entity, visited in two
// separate subject runs; as objects either spelling reaches it, even
// one that never appears as a subject itself.
func TestAliasedBlankAndIRIKeys(t *testing.T) {
	triples := []rdf.Triple{
		tr("_:x", "http://v/name", lit("iri")),
		rdf.NewTriple(rdf.NewBlank("x"), iri("http://v/name"), lit("blank")),
		tr("_:y", "http://v/name", lit("why")),
		tr("http://e/a", "http://v/knows", rdf.NewBlank("x")),
		tr("http://e/a", "http://v/knows", iri("_:x")),
		tr("http://e/b", "http://v/knows", rdf.NewBlank("y")), // only <_:y> is a subject
	}
	kb, err := FromTriples("aliased", triples)
	if err != nil {
		t.Fatal(err)
	}
	var uris []string
	for i := 0; i < kb.Len(); i++ {
		uris = append(uris, kb.URI(EntityID(i)))
	}
	if want := []string{"_:x", "_:y", "http://e/a", "http://e/b"}; !reflect.DeepEqual(uris, want) {
		t.Fatalf("entities = %v, want %v", uris, want)
	}
	name, _ := kb.PredID("http://v/name")
	if st := kb.AttrStat(name); st == nil || st.Entities != 2 || st.Distinct != 3 {
		t.Errorf("name stat = %+v, want 2 entities (the aliased one counted once), 3 distinct values", st)
	}
	knows, _ := kb.PredID("http://v/knows")
	if st := kb.RelStat(knows); st == nil || st.Entities != 2 || st.Distinct != 2 {
		t.Errorf("knows stat = %+v, want 2 entities, 2 distinct targets (both spellings of _:x are one)", st)
	}
	x, _ := kb.Lookup("_:x")
	y, _ := kb.Lookup("_:y")
	if got := len(kb.Entity(x).Attrs); got != 2 {
		t.Errorf("_:x has %d attribute values, want 2", got)
	}
	if in := kb.Entity(x).In; len(in) != 2 {
		t.Errorf("_:x has in-edges %v, want one per spelling", in)
	}
	if in := kb.Entity(y).In; len(in) != 1 {
		t.Errorf("_:y has in-edges %v, want the edge from the blank spelling", in)
	}
	if kb.NumAttributes() != 1 {
		t.Errorf("attributes = %d, want 1: no spelling may degrade to a dangling value", kb.NumAttributes())
	}
}

func TestDeterministicBuild(t *testing.T) {
	// Build twice from differently ordered inputs; the KBs must agree on
	// entity order and statistics.
	triples := []rdf.Triple{
		tr("http://e/b", "http://v/name", lit("Bravo")),
		tr("http://e/a", "http://v/name", lit("Alpha")),
		tr("http://e/c", "http://v/ref", iri("http://e/a")),
	}
	kb1, err := FromTriples("d", triples)
	if err != nil {
		t.Fatal(err)
	}
	rev := []rdf.Triple{triples[2], triples[1], triples[0]}
	kb2, err := FromTriples("d", rev)
	if err != nil {
		t.Fatal(err)
	}
	if kb1.Len() != kb2.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < kb1.Len(); i++ {
		if kb1.URI(EntityID(i)) != kb2.URI(EntityID(i)) {
			t.Errorf("entity %d: %s vs %s", i, kb1.URI(EntityID(i)), kb2.URI(EntityID(i)))
		}
	}
}

func TestStringSummary(t *testing.T) {
	kb := buildTestKB(t)
	s := kb.String()
	if s == "" {
		t.Error("empty summary")
	}
}
