package minoaner

import (
	"context"
	"math/rand"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// BenchmarkMutate is the ladder rung of the epoch-update path, shaped
// like the serve-write workload without the socket: YAGO-IMDb x0.5, a
// seeded fifth of the second KB's subjects held out of the index, and
// one op = insert a held-out entity, rewrite it to its first triple,
// delete it (a cycle returns the index to its starting content).
// Inserts and deletes shift every later ID of their side; the rewrite
// does not, so the three mutations exercise both carry-over paths.
func BenchmarkMutate(b *testing.B) {
	bm, err := GenerateBenchmark("YAGO-IMDb", 42, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	var order []string
	bySubject := map[string][]rdf.Triple{}
	for _, t := range bm.ds.Triples2 {
		key := kb.SubjectKey(t.Subject)
		if _, seen := bySubject[key]; !seen {
			order = append(order, key)
		}
		bySubject[key] = append(bySubject[key], t)
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	held := order[:len(order)/5]
	heldSet := make(map[string]bool, len(held))
	for _, uri := range held {
		heldSet[uri] = true
	}
	var base []rdf.Triple
	for _, t := range bm.ds.Triples2 {
		if !heldSet[kb.SubjectKey(t.Subject)] {
			base = append(base, t)
		}
	}
	delta := func(ts []rdf.Triple) *KB {
		built, err := kb.FromTriples("delta", ts)
		if err != nil {
			b.Fatal(err)
		}
		return &KB{kb: built}
	}
	ix, err := BuildIndex(bm.KB1, delta(base), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	type entity struct {
		uri         string
		full, first *KB
	}
	entities := make([]entity, len(held))
	for i, uri := range held {
		ts := bySubject[uri]
		entities[i] = entity{uri: uri, full: delta(ts), first: delta(ts[:1])}
	}
	ctx := context.Background()
	cycle := func(e entity) {
		if err := ix.Upsert(ctx, 2, e.full); err != nil {
			b.Fatal(err)
		}
		if err := ix.Upsert(ctx, 2, e.first); err != nil {
			b.Fatal(err)
		}
		if err := ix.Delete(ctx, 2, e.uri); err != nil {
			b.Fatal(err)
		}
	}
	// The first mutation builds the write side (stores, scoring
	// substrate); keep it out of the measurement, as serve-write does.
	cycle(entities[len(entities)-1])
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		cycle(entities[i%len(entities)])
		i++
	}
}
