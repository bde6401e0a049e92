package kb_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// fnvTermHash is a term hash with a seed the test chooses, where the
// production hash draws its own.
func fnvTermHash(seed uint64) func(rdf.Term) uint64 {
	return func(t rdf.Term) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%s|%s|%s", seed, t.Kind, t.Value, t.Lang, t.Datatype)
		return h.Sum64()
	}
}

// TestIngestIsHashBlind: a hash may decide where a term's slot lies and
// nothing else. Every benchmark KB, ingested under two seeds of one hash
// function and under the production hash, at every worker count, must
// come out as the same bytes.
func TestIngestIsHashBlind(t *testing.T) {
	hashes := map[string]func(rdf.Term) uint64{"fnv seed 1": fnvTermHash(1), "fnv seed 2": fnvTermHash(2), "production": nil}
	for _, g := range datagen.Generators() {
		// As in TestIngestMatchesSerialOracle: the bigger KBs span
		// several production-size blocks.
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		for side, triples := range map[string][]rdf.Triple{"KB1": ds.Triples1, "KB2": ds.Triples2} {
			var nt bytes.Buffer
			if err := rdf.WriteAll(&nt, triples); err != nil {
				t.Fatal(err)
			}
			var want []byte
			for name, hash := range hashes {
				for _, workers := range ingestWorkers {
					b := kb.NewBuilder(ds.Name)
					if hash != nil {
						b.SetTermHash(hash)
					}
					b.SetWorkers(workers)
					if _, err := b.AddFromReader(context.Background(), bytes.NewReader(nt.Bytes()), false); err != nil {
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
					if want == nil {
						want = got.Bytes()
					} else if !bytes.Equal(got.Bytes(), want) {
						t.Errorf("%s %s: WriteBinary under %s at %d workers differs from the first ingest's", ds.Name, side, name, workers)
					}
				}
			}
		}
	}
}
