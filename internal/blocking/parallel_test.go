package blocking

// Equivalence guard for key-sharded blocking: substrates built across
// any worker count must join into the reference collections on all
// four synthetic benchmarks.

import (
	"reflect"
	"testing"

	"minoaner/internal/datagen"
)

var shardWorkerCounts = []int{1, 2, 4, 8}

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
		want := referenceTokenBlocks(ds.KB1, ds.KB2)
		for _, w := range shardWorkerCounts {
			p1 := Prepare(ds.KB1, 2, w, nil)
			if got := JoinTokenBlocks(p1, Prepare(ds.KB2, 2, w, p1)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: token join at workers=%d differs from the reference", ds.Name, w)
			}
		}
	}
}

func TestNameBlocksShardedBitIdentical(t *testing.T) {
	for _, ds := range equivalenceDatasets(t) {
		want := referenceNameBlocks(ds.KB1, ds.KB2, 2)
		for _, w := range shardWorkerCounts {
			p1 := Prepare(ds.KB1, 2, w, nil)
			if got := JoinNameBlocks(p1, Prepare(ds.KB2, 2, w, p1)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: name join at workers=%d differs from the reference", ds.Name, w)
			}
		}
	}
}
