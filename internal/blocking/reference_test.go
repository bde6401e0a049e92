package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// referenceBlocks is the tests' oracle of a two-sided collection,
// written to share nothing with Prepare or the join: one serial map
// over both KBs' keys, single-sided keys dropped, blocks sorted by key.
func referenceBlocks(n1, n2 int, keys1, keys2 func(e kb.EntityID) []string) *Collection {
	type members struct{ e1, e2 []kb.EntityID }
	m := map[string]*members{}
	at := func(key string) *members {
		if m[key] == nil {
			m[key] = &members{}
		}
		return m[key]
	}
	for e := range kb.EntityID(n1) {
		for _, key := range keys1(e) {
			at(key).e1 = append(at(key).e1, e)
		}
	}
	for e := range kb.EntityID(n2) {
		for _, key := range keys2(e) {
			at(key).e2 = append(at(key).e2, e)
		}
	}
	c := NewCollection(n1, n2)
	c.Blocks = []Block{}
	for key, mem := range m {
		if len(mem.e1) > 0 && len(mem.e2) > 0 {
			c.Blocks = append(c.Blocks, Block{Key: key, E1: mem.e1, E2: mem.e2})
		}
	}
	sort.Slice(c.Blocks, func(i, j int) bool { return c.Blocks[i].Key < c.Blocks[j].Key })
	return c
}

// referenceTokenBlocks is the oracle of B_T.
func referenceTokenBlocks(kb1, kb2 *kb.KB) *Collection {
	return referenceBlocks(kb1.Len(), kb2.Len(), kb1.Tokens, kb2.Tokens)
}

// referenceNameBlocks is the oracle of B_N: each KB's name keys come
// from its own nameK most distinctive attributes.
func referenceNameBlocks(kb1, kb2 *kb.KB, nameK int) *Collection {
	attrs1, attrs2 := kb1.TopNameAttributes(nameK), kb2.TopNameAttributes(nameK)
	return referenceBlocks(kb1.Len(), kb2.Len(),
		func(e kb.EntityID) []string { return kb1.Names(e, attrs1) },
		func(e kb.EntityID) []string { return kb2.Names(e, attrs2) })
}

// randomSides builds a seeded KB pair whose vocabularies overlap only
// in part, so both sides hold keys the other lacks. Either size may be
// zero.
func randomSides(t testing.TB, rng *rand.Rand, n1, n2 int) (*kb.KB, *kb.KB) {
	t.Helper()
	build := func(name string, n, lo, hi int) *kb.KB {
		word := func() string { return fmt.Sprintf("w%02d", lo+rng.Intn(hi-lo)) }
		var triples []rdf.Triple
		for i := range n {
			subj := rdf.NewIRI(fmt.Sprintf("http://%s/e%03d", name, i))
			triples = append(triples,
				rdf.NewTriple(subj, rdf.NewIRI("http://v/name"), rdf.NewLiteral(word()+" "+word())),
				rdf.NewTriple(subj, rdf.NewIRI("http://v/desc"), rdf.NewLiteral(word())))
		}
		k, err := kb.FromTriples(name, triples)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	return build("a", n1, 0, 30), build("b", n2, 12, 45)
}

// assertJoins checks every join the engines run against the oracle, in
// both key spaces: two full substrates, and a full side with the other
// bounded by it, either way round, at several worker counts.
func assertJoins(t *testing.T, label string, kb1, kb2 *kb.KB, nameK int) {
	t.Helper()
	wantTok, wantName := referenceTokenBlocks(kb1, kb2), referenceNameBlocks(kb1, kb2, nameK)
	for _, w := range []int{1, 2, 4, 8} {
		full1, full2 := Prepare(kb1, nameK, w, nil), Prepare(kb2, nameK, w, nil)
		pairs := map[string][2]*Prepared{
			"full":       {full1, full2},
			"bounded 2":  {full1, Prepare(kb2, nameK, w, full1)},
			"bounded 1":  {Prepare(kb1, nameK, w, full2), full2},
			"2 bounds 1": {Prepare(kb1, nameK, w, Prepare(kb2, nameK, w, full1)), full2},
		}
		for name, p := range pairs {
			if got := JoinTokenBlocks(p[0], p[1]); !reflect.DeepEqual(got, wantTok) {
				t.Fatalf("%s, %s, workers=%d: token join diverges from the reference (%d vs %d blocks)",
					label, name, w, got.Size(), wantTok.Size())
			}
			if got := JoinNameBlocks(p[0], p[1]); !reflect.DeepEqual(got, wantName) {
				t.Fatalf("%s, %s, workers=%d: name join diverges from the reference (%d vs %d blocks)",
					label, name, w, got.Size(), wantName.Size())
			}
		}
	}
	if got := TokenBlocks(kb1, kb2); !reflect.DeepEqual(got, wantTok) {
		t.Fatalf("%s: TokenBlocks diverges from the reference", label)
	}
	if got := NameBlocks(kb1, kb2, nameK); !reflect.DeepEqual(got, wantName) {
		t.Fatalf("%s: NameBlocks diverges from the reference", label)
	}
}

// TestJoinMatchesReference: on seeded random pairs — empty KBs, keys
// held by one side only, KB2 smaller and larger than KB1 — and on the
// four synthetic benchmarks, every join of two substrates equals the
// naive reference construction.
func TestJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sizes := range [][2]int{{0, 0}, {0, 7}, {9, 0}, {1, 1}, {40, 6}, {6, 40}, {35, 35}, {80, 3}} {
		kb1, kb2 := randomSides(t, rng, sizes[0], sizes[1])
		assertJoins(t, fmt.Sprintf("random %dx%d", sizes[0], sizes[1]), kb1, kb2, 2)
	}
	for _, ds := range equivalenceDatasets(t) {
		assertJoins(t, ds.Name, ds.KB1, ds.KB2, 2)
	}
}
