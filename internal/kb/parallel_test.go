package kb_test

// Equivalence guard for the parallel, interned KB builder: at every
// worker count, and through the streaming AddFromReader entry point,
// Build must produce a KB bit-identical to the sequential path on all
// four synthetic benchmarks. Identity is asserted over the binary
// serialization, which covers entities, attribute values, edges,
// types, token bags, predicate dictionaries, and statistics.

import (
	"bytes"
	"context"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

const equivScale = 0.05

func benchmarkTripleSets(t *testing.T) map[string][]rdf.Triple {
	t.Helper()
	sets := make(map[string][]rdf.Triple)
	for _, g := range datagen.Generators() {
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: equivScale})
		if err != nil {
			t.Fatal(err)
		}
		sets[ds.Name+"/KB1"] = ds.Triples1
		sets[ds.Name+"/KB2"] = ds.Triples2
	}
	return sets
}

func buildBinary(t *testing.T, name string, triples []rdf.Triple, workers int) []byte {
	t.Helper()
	b := kb.NewBuilder(name)
	b.SetWorkers(workers)
	if err := b.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelBuildBitIdentical(t *testing.T) {
	for name, triples := range benchmarkTripleSets(t) {
		want := buildBinary(t, name, triples, 1)
		for _, workers := range []int{2, 4, 8} {
			got := buildBinary(t, name, triples, workers)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: workers=%d KB differs from sequential build", name, workers)
			}
		}
	}
}

func TestAddFromReaderMatchesAddAll(t *testing.T) {
	for name, triples := range benchmarkTripleSets(t) {
		want := buildBinary(t, name, triples, 4)

		var nt bytes.Buffer
		if err := rdf.WriteAll(&nt, triples); err != nil {
			t.Fatal(err)
		}
		b := kb.NewBuilder(name)
		b.SetWorkers(4)
		if _, err := b.AddFromReader(context.Background(), &nt, false); err != nil {
			t.Fatal(err)
		}
		built, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := built.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: streamed KB differs from AddAll KB", name)
		}
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	triples := []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://e/a"), rdf.NewIRI("http://v/p"), rdf.NewLiteral("one")),
		rdf.NewTriple(rdf.NewIRI("http://e/b"), rdf.NewIRI("http://v/p"), rdf.NewLiteral("two")),
	}
	b := kb.NewBuilder("reuse")
	if err := b.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	k1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := k1.WriteBinary(&b1); err != nil {
		t.Fatal(err)
	}
	if err := k2.WriteBinary(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("second Build differs from first")
	}
}
