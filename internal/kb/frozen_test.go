package kb

import (
	"math/rand"
	"reflect"
	"testing"
)

// reverseNeighborsByAppend is the form ReverseNeighbors had before its
// lists shared one backing array: one growing slice per entity. It is
// the contract — same members, same order, nil for nobody.
func reverseNeighborsByAppend(top [][]EntityID, n int) [][]EntityID {
	rev := make([][]EntityID, n)
	for e, nbrs := range top {
		for _, x := range nbrs {
			rev[x] = append(rev[x], EntityID(e))
		}
	}
	return rev
}

func TestReverseNeighborsMatchesAppendForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	top := make([][]EntityID, n)
	for e := range top {
		if e%5 == 0 {
			continue // entities without neighbours keep a nil list
		}
		for range 1 + rng.Intn(4) {
			// Targets come from the lower half, so they repeat across
			// entities (and now and then within one list) and nobody lists
			// the upper half.
			top[e] = append(top[e], EntityID(rng.Intn(n/2)))
		}
	}
	got, want := ReverseNeighbors(top, n), reverseNeighborsByAppend(top, n)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("slab-backed reverse lists differ from the append form")
	}
	listed := 0
	for x, list := range got {
		if x >= n/2 && list != nil {
			t.Fatalf("entity %d, which nobody lists, has %v, want nil", x, list)
		}
		if cap(list) != len(list) {
			t.Fatalf("entity %d: cap %d != len %d, an append would reach the next list", x, cap(list), len(list))
		}
		if list != nil {
			listed++
		}
	}
	if listed < 2 {
		t.Fatalf("fixture lists %d entities; the neighbour check below needs two", listed)
	}
	// Appending to one list must leave every other one as it was.
	for x := range got {
		if got[x] != nil {
			got[x] = append(got[x], -1)
			got[x] = got[x][:len(got[x])-1]
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("appending to one reverse list changed another")
	}

	if rev := ReverseNeighbors(nil, 0); rev == nil || len(rev) != 0 {
		t.Errorf("empty KB: got %v, want an empty non-nil index", rev)
	}
}
