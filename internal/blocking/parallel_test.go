package blocking

// Equivalence guard for key-sharded blocking: TokenBlocksN and
// NameBlocksN must produce collections bit-identical to the sequential
// path at every worker count, on all four synthetic benchmarks.

import (
	"reflect"
	"testing"

	"minoaner/internal/datagen"
)

var shardWorkerCounts = []int{2, 4, 8}

func equivalenceDatasets(t *testing.T) []*datagen.Dataset {
	t.Helper()
	var out []*datagen.Dataset
	for _, g := range datagen.Generators() {
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds)
	}
	return out
}

func TestTokenBlocksShardedBitIdentical(t *testing.T) {
	for _, ds := range equivalenceDatasets(t) {
		want := TokenBlocksN(ds.KB1, ds.KB2, 1)
		for _, w := range shardWorkerCounts {
			got := TokenBlocksN(ds.KB1, ds.KB2, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: TokenBlocksN(workers=%d) differs from sequential", ds.Name, w)
			}
		}
	}
}

func TestNameBlocksShardedBitIdentical(t *testing.T) {
	for _, ds := range equivalenceDatasets(t) {
		want := NameBlocksN(ds.KB1, ds.KB2, 2, 1)
		for _, w := range shardWorkerCounts {
			got := NameBlocksN(ds.KB1, ds.KB2, 2, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: NameBlocksN(workers=%d) differs from sequential", ds.Name, w)
			}
		}
	}
}
