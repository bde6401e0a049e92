package blocking

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// randomPair builds a deterministic random KB pair with overlapping
// token vocabularies and a couple of name-bearing attributes.
func randomPair(t testing.TB, seed int64, n1, n2 int) (*kb.KB, *kb.KB) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%02d", i)
	}
	build := func(name string, n int) *kb.KB {
		var triples []rdf.Triple
		for i := 0; i < n; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://%s/e%03d", name, i))
			words := vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
			triples = append(triples,
				rdf.NewTriple(subj, rdf.NewIRI("http://v/name"), rdf.NewLiteral(words)),
				rdf.NewTriple(subj, rdf.NewIRI("http://v/desc"), rdf.NewLiteral(vocab[rng.Intn(len(vocab))])),
			)
		}
		k, err := kb.FromTriples(name, triples)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	return build("a", n1), build("b", n2)
}

// TestProbeMatchesFullConstruction: a delta's substrate, bounded by
// the prepared KB's and built serially as a delta run builds it, joins
// with the prepared substrate into exactly the reference collections
// over the same pair, at several worker counts of the prepared side.
func TestProbeMatchesFullConstruction(t *testing.T) {
	kb1, delta := randomPair(t, 7, 60, 9)
	const nameK = 2
	for _, workers := range []int{1, 2, 4} {
		p := Prepare(kb1, nameK, workers, nil)
		d := Prepare(delta, nameK, 1, p)
		if got, want := JoinTokenBlocks(p, d), referenceTokenBlocks(kb1, delta); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: delta token blocks diverge (%d vs %d blocks)", workers, got.Size(), want.Size())
		}
		if got, want := JoinNameBlocks(p, d), referenceNameBlocks(kb1, delta, nameK); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: delta name blocks diverge (%d vs %d blocks)", workers, got.Size(), want.Size())
		}
	}
}

// TestPrepareWorkerInvariance: the substrate, full or bounded, is
// identical at every worker count.
func TestPrepareWorkerInvariance(t *testing.T) {
	kb1, kb2 := randomPair(t, 3, 80, 30)
	base := Prepare(kb1, 2, 1, nil)
	bounded := Prepare(kb2, 2, 1, base)
	for _, workers := range []int{2, 4, 8} {
		if got := Prepare(kb1, 2, workers, nil); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d substrate diverges from workers=1", workers)
		}
		if got := Prepare(kb2, 2, workers, base); !reflect.DeepEqual(got, bounded) {
			t.Fatalf("workers=%d bounded substrate diverges from workers=1", workers)
		}
	}
}

// TestSparseIndexMatchesFull: a delta's collection indexed into
// side-1 scratch agrees with the reference, and side 1 lays out runs
// for only the entities the blocks contain.
func TestSparseIndexMatchesFull(t *testing.T) {
	kb1, delta := randomPair(t, 11, 50, 8)
	p := Prepare(kb1, 2, 1, nil)
	c := JoinTokenBlocks(p, Prepare(delta, 2, 1, p))
	scratch := NewIndexSide(kb1.Len())
	assertIndexMatches(t, "delta", c, c.BuildIndexInto(scratch))
	members := map[kb.EntityID]bool{}
	for _, b := range c.Blocks {
		for _, e := range b.E1 {
			members[e] = true
		}
	}
	if len(scratch.touched) != len(members) {
		t.Errorf("side 1 laid out %d runs for %d members", len(scratch.touched), len(members))
	}
}

// TestPreparedBinaryRoundTrip: the substrate codec is deterministic
// and bit-identical through a reload, and corruption is rejected.
func TestPreparedBinaryRoundTrip(t *testing.T) {
	kb1, delta := randomPair(t, 13, 70, 10)
	p := Prepare(kb1, 2, 4, nil)
	var first bytes.Buffer
	if err := p.WriteBinary(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPreparedData(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatal("substrate diverges after reload")
	}
	var second bytes.Buffer
	if err := back.WriteBinary(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("not bit-identical after reload (%d vs %d bytes)", first.Len(), second.Len())
	}

	// A reloaded substrate bounds and joins identically.
	want := JoinTokenBlocks(p, Prepare(delta, 2, 1, p))
	if got := JoinTokenBlocks(back, Prepare(delta, 2, 1, back)); !reflect.DeepEqual(got, want) {
		t.Fatal("reloaded substrate joins differently")
	}

	data := first.Bytes()
	for off := 5; off < len(data); off += len(data)/41 + 1 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		if _, err := ReadPreparedData(mut); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
	for _, cut := range []int{0, 3, len(data) / 2, len(data) - 1} {
		if _, err := ReadPreparedData(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestPrepareTokenAllocsIndependentOfEntities pins the counting sorts
// behind the postings: over a fixed vocabulary and a fixed set of
// (already normalized) names, Prepare's allocation count does not grow
// with the number of entities, for a first side and for a side bounded
// by it. Name keys are computed into one slot array, and a normalized
// value is its own key, so the name side allocates per distinct key at
// most, never per entity.
func TestPrepareTokenAllocsIndependentOfEntities(t *testing.T) {
	values := func(n int) []string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("tok%02d tok%02d tok%02d", i%40, (i*7)%40, (i*13)%40)
		}
		return vals
	}
	allocs := func(n int) (first, bounded float64) {
		k1 := kbFromValues(t, "a", values(n))
		k2 := kbFromValues(t, "b", values(n))
		p1 := Prepare(k1, 1, 1, nil)
		first = testing.AllocsPerRun(10, func() { Prepare(k1, 1, 1, nil) })
		bounded = testing.AllocsPerRun(10, func() { Prepare(k2, 1, 1, p1) })
		return first, bounded
	}
	small1, small2 := allocs(100)
	big1, big2 := allocs(1600)
	if big1 != small1 || big2 != small2 {
		t.Errorf("Prepare allocations grow with the entities: %v -> %v (first side), %v -> %v (bounded side) from 100 to 1600 entities",
			small1, big1, small2, big2)
	}
}
