package minoaner

import (
	"context"
	"math/rand"
	"testing"
	"time"

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
	// spent accumulates each mutation kind's wall time, reported per op
	// beside the cycle's.
	var spent [3]time.Duration
	timed := func(kind int, mutate func() error) {
		start := time.Now()
		if err := mutate(); err != nil {
			b.Fatal(err)
		}
		spent[kind] += time.Since(start)
	}
	cycle := func(e entity) {
		timed(0, func() error { return ix.Upsert(ctx, 2, e.full) })
		timed(1, func() error { return ix.Upsert(ctx, 2, e.first) })
		timed(2, func() error { return ix.Delete(ctx, 2, e.uri) })
	}
	// The first mutation builds the write side (stores, scoring
	// substrate); keep it out of the measurement, as serve-write does.
	cycle(entities[len(entities)-1])
	spent = [3]time.Duration{}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		cycle(entities[i%len(entities)])
		i++
	}
	for kind, unit := range []string{"insert-ms/op", "rewrite-ms/op", "delete-ms/op"} {
		b.ReportMetric(float64(spent[kind])/float64(time.Millisecond)/float64(b.N), unit)
	}
}
