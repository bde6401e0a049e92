package blocking

import (
	"bytes"
	"context"
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

// TestProbeMatchesFullConstruction: probing the prepared substrate
// with a delta reproduces TokenBlocksN/NameBlocksN over the same pair
// exactly, at several worker counts.
func TestProbeMatchesFullConstruction(t *testing.T) {
	kb1, delta := randomPair(t, 7, 60, 9)
	const nameK = 2
	for _, workers := range []int{1, 2, 4} {
		p := Prepare(kb1, nameK, workers)
		gotTok, err := p.ProbeTokenBlocks(context.Background(), delta)
		if err != nil {
			t.Fatal(err)
		}
		if wantTok := TokenBlocksN(kb1, delta, workers); !reflect.DeepEqual(gotTok, wantTok) {
			t.Fatalf("workers=%d: probed token blocks diverge (%d vs %d blocks)",
				workers, gotTok.Size(), wantTok.Size())
		}
		gotName, err := p.ProbeNameBlocks(context.Background(), delta)
		if err != nil {
			t.Fatal(err)
		}
		if wantName := NameBlocksN(kb1, delta, nameK, workers); !reflect.DeepEqual(gotName, wantName) {
			t.Fatalf("workers=%d: probed name blocks diverge (%d vs %d blocks)",
				workers, gotName.Size(), wantName.Size())
		}
	}
}

// TestPrepareWorkerInvariance: the substrate is identical at every
// worker count.
func TestPrepareWorkerInvariance(t *testing.T) {
	kb1, _ := randomPair(t, 3, 80, 1)
	base := Prepare(kb1, 2, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := Prepare(kb1, 2, workers); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d substrate diverges from workers=1", workers)
		}
	}
}

// TestProbeCancellation: a cancelled context aborts the probe.
func TestProbeCancellation(t *testing.T) {
	kb1, delta := randomPair(t, 5, 30, 5)
	p := Prepare(kb1, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ProbeTokenBlocks(ctx, delta); err != context.Canceled {
		t.Errorf("token probe err = %v, want context.Canceled", err)
	}
	if _, err := p.ProbeNameBlocks(ctx, delta); err != context.Canceled {
		t.Errorf("name probe err = %v, want context.Canceled", err)
	}
}

// TestSparseIndexMatchesFull: a probed collection indexed into
// side-1 scratch agrees with the reference, and side 1 lays out runs
// for only the entities the blocks contain.
func TestSparseIndexMatchesFull(t *testing.T) {
	kb1, delta := randomPair(t, 11, 50, 8)
	p := Prepare(kb1, 2, 1)
	c, err := p.ProbeTokenBlocks(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewIndexSide(kb1.Len())
	assertIndexMatches(t, "probed", c, c.BuildIndexInto(scratch))
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
	p := Prepare(kb1, 2, 4)
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

	// A reloaded substrate probes identically.
	want, err := p.ProbeTokenBlocks(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.ProbeTokenBlocks(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reloaded substrate probes differently")
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
