package kb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"minoaner/internal/rdf"
)

// checkTable asserts the table's invariants: a power-of-two slot array
// at most half full, one slot per term, and every term found under its
// own ID — none made unreachable by a growth or a removal.
func checkTable(t *testing.T, tt *termTable, live map[int32]bool) {
	t.Helper()
	if n := len(tt.slots); n&(n-1) != 0 {
		t.Fatalf("%d slots: not a power of two", n)
	}
	occupied := 0
	for _, s := range tt.slots {
		if s.ref != 0 {
			occupied++
		}
	}
	if occupied != len(live) {
		t.Fatalf("%d occupied slots for %d terms", occupied, len(live))
	}
	if 2*occupied > len(tt.slots) {
		t.Fatalf("%d of %d slots occupied: more than half", occupied, len(tt.slots))
	}
	for id, term := range tt.terms {
		want := int32(id)
		if !live[want] {
			want = -1
		}
		if got := tt.lookup(term); got != want {
			t.Fatalf("lookup(%v) = %d, want %d", term, got, want)
		}
	}
}

func allLive(n int) map[int32]bool {
	live := make(map[int32]bool, n)
	for i := 0; i < n; i++ {
		live[int32(i)] = true
	}
	return live
}

// testTerm returns the i-th of a sequence of distinct terms that covers
// every kind, language tags and datatypes, and values that differ in
// their kind alone.
func testTerm(i int) rdf.Term {
	v := fmt.Sprintf("http://e/%d", i/5)
	switch i % 5 {
	case 0:
		return rdf.NewIRI(v)
	case 1:
		return rdf.NewLiteral(v)
	case 2:
		return rdf.NewLangLiteral(v, "en")
	case 3:
		return rdf.NewTypedLiteral(v, "http://www.w3.org/2001/XMLSchema#string")
	default:
		return rdf.NewBlank(v)
	}
}

// tableHashes are hash functions a table must be correct under, however
// bad: every term on one probe run, eight home slots for all terms, four
// at the very end of the slot array so that the runs wrap around, and
// the production hash.
var tableHashes = map[string]func(rdf.Term) uint64{
	"constant":   func(rdf.Term) uint64 { return 0xdeadbeef },
	"eight-home": func(t rdf.Term) uint64 { return uint64(len(t.Value)+len(t.Lang)) % 8 },
	"wrapping":   func(t rdf.Term) uint64 { return ^uint64(len(t.Value) % 4) },
	"seeded":     seededTermHash(),
}

func TestTermTableInternAndGrow(t *testing.T) {
	for name, hash := range tableHashes {
		t.Run(name, func(t *testing.T) {
			tt := &termTable{hash: hash}
			if got := tt.lookup(testTerm(0)); got != -1 {
				t.Fatalf("lookup in an empty table = %d", got)
			}
			const n = 700 // minTermSlots doubles seven times on the way
			for i := 0; i < n; i++ {
				if id := tt.intern(testTerm(i)); id != int32(i) {
					t.Fatalf("term %d interned as %d", i, id)
				}
				if id := tt.intern(testTerm(i / 2)); id != int32(i/2) {
					t.Fatalf("term %d re-interned as %d", i/2, id)
				}
			}
			if len(tt.terms) != n {
				t.Fatalf("%d terms, want %d", len(tt.terms), n)
			}
			if len(tt.slots) < 2*n || len(tt.slots) > 4*n {
				t.Fatalf("%d slots for %d terms", len(tt.slots), n)
			}
			checkTable(t, tt, allLive(n))
			if got := tt.lookup(testTerm(n)); got != -1 {
				t.Fatalf("lookup of an absent term = %d", got)
			}
			if tt.typeTerm() != -1 {
				t.Fatal("rdf:type found in a table that never saw it")
			}
			if id := tt.intern(rdf.NewIRI(RDFType)); tt.typeTerm() != id {
				t.Fatalf("typeTerm = %d, want %d", tt.typeTerm(), id)
			}
		})
	}
}

func TestTermTableReserve(t *testing.T) {
	tt := &termTable{hash: seededTermHash()}
	tt.reserve(1000)
	slots, terms := &tt.slots[0], cap(tt.terms)
	for i := 0; i < 1000; i++ {
		tt.intern(testTerm(i))
	}
	if &tt.slots[0] != slots || cap(tt.terms) != terms {
		t.Fatal("a reserved table regrew within its reservation")
	}
	checkTable(t, tt, allLive(1000))
}

// TestTermTableUnslot removes terms in random order — which truncate
// never does, and which puts the backward shift through every case: runs
// that wrap around the slot array, slots that must stay behind their
// home, gaps that travel to the end of a run.
func TestTermTableUnslot(t *testing.T) {
	for name, hash := range tableHashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			tt := &termTable{hash: hash}
			const n = 150
			for i := 0; i < n; i++ {
				tt.intern(testTerm(i))
			}
			live := allLive(n)
			for _, i := range rng.Perm(n) {
				tt.unslot(int32(i))
				delete(live, int32(i))
				checkTable(t, tt, live)
			}
			for _, s := range tt.slots {
				if s != (termSlot{}) {
					t.Fatalf("slot %+v left in an emptied table", s)
				}
			}
		})
	}
}

func TestTermTableTruncate(t *testing.T) {
	for name, hash := range tableHashes {
		t.Run(name, func(t *testing.T) {
			tt := &termTable{hash: hash}
			for i := 0; i < 100; i++ {
				tt.intern(testTerm(i))
			}
			// What Store.Apply's Revert does: forget the newest terms,
			// then carry on interning from there.
			tt.truncate(60)
			if len(tt.terms) != 60 {
				t.Fatalf("%d terms after truncate(60)", len(tt.terms))
			}
			checkTable(t, tt, allLive(60))
			for i := 60; i < 100; i++ {
				if got := tt.lookup(testTerm(i)); got != -1 {
					t.Fatalf("truncated term %d still found as %d", i, got)
				}
			}
			for i := 99; i >= 60; i-- {
				if id, want := tt.intern(testTerm(i)), int32(60+99-i); id != want {
					t.Fatalf("term interned as %d after the truncate, want %d", id, want)
				}
			}
			checkTable(t, tt, allLive(100))
		})
	}
}

func TestTermTableIndexAndDrain(t *testing.T) {
	terms := make([]rdf.Term, 300)
	for i := range terms {
		terms[i] = testTerm(i)
	}
	// An equal term, as only a damaged image holds one: the first keeps
	// the name, whatever the hash function.
	terms[200] = terms[7]
	for name, hash := range tableHashes {
		t.Run(name, func(t *testing.T) {
			tt := &termTable{terms: terms, hash: hash}
			tt.index()
			live := allLive(len(terms))
			delete(live, 200)
			for id := range terms {
				want := int32(id)
				if id == 200 {
					want = 7
				}
				if got := tt.lookup(terms[id]); got != want {
					t.Fatalf("lookup(terms[%d]) = %d, want %d", id, got, want)
				}
			}
			tt.unslot(200) // never entered: must leave term 7 alone
			if got := tt.lookup(terms[7]); got != 7 {
				t.Fatalf("lookup(terms[7]) = %d after unslotting its duplicate", got)
			}

			slots := len(tt.slots)
			drained, hashes := tt.drain()
			if len(drained) != len(terms) || len(hashes) != len(terms) {
				t.Fatalf("drained %d terms, %d hashes", len(drained), len(hashes))
			}
			for id, h := range hashes {
				if id != 200 && h != hash(terms[id]) {
					t.Fatalf("hash %d = %#x, want %#x", id, h, hash(terms[id]))
				}
			}
			if len(tt.terms) != 0 || len(tt.slots) != slots {
				t.Fatalf("drained table holds %d terms in %d slots (had %d)", len(tt.terms), len(tt.slots), slots)
			}
			checkTable(t, tt, nil)
		})
	}
}

// TestBuilderReuseAfterBuild: a builder that goes on after Build must
// neither disturb the KB it built nor start from anything but the full
// table it had.
func TestBuilderReuseAfterBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	first, second := randomTriples(rng, 20, 200), randomTriples(rng, 30, 400)
	binaryOf := func(k *KB) []byte {
		var buf bytes.Buffer
		if err := k.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	b := NewBuilder("reuse")
	if err := b.AddAll(first); err != nil {
		t.Fatal(err)
	}
	k1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := binaryOf(k1)
	if err := b.AddAll(second); err != nil {
		t.Fatal(err)
	}
	k2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binaryOf(k1), before) {
		t.Error("the first KB changed when its builder went on")
	}
	fresh, err := FromTriples("reuse", append(append([]rdf.Triple(nil), first...), second...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binaryOf(k2), binaryOf(fresh)) {
		t.Error("a reused builder's KB differs from a fresh builder's over the same triples")
	}
	checkTable(t, &b.termTable, allLive(len(b.terms)))
}
