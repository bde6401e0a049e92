package blocking

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"minoaner/internal/kb"
)

// referenceIndex is the per-entity index the CSR replaces: every
// entity's block positions appended in block order, nil for an entity
// in no block.
func referenceIndex(c *Collection) (by1, by2 [][]int32) {
	by1, by2 = make([][]int32, c.n1), make([][]int32, c.n2)
	for bi := range c.Blocks {
		for _, e := range c.Blocks[bi].E1 {
			by1[e] = append(by1[e], int32(bi))
		}
		for _, e := range c.Blocks[bi].E2 {
			by2[e] = append(by2[e], int32(bi))
		}
	}
	return by1, by2
}

// assertIndexMatches compares both sides of idx with the reference
// lists of c, entity by entity.
func assertIndexMatches(t *testing.T, label string, c *Collection, idx *Index) {
	t.Helper()
	by1, by2 := referenceIndex(c)
	assertPostings(t, label+" side 1", idx.ByE1, by1)
	assertPostings(t, label+" side 2", idx.ByE2, by2)
}

func assertPostings(t *testing.T, label string, got *IndexSide, want [][]int32) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: indexes %d entities, want %d", label, got.Len(), len(want))
	}
	for e, w := range want {
		if g := got.Of(kb.EntityID(e)); !slices.Equal(g, w) {
			t.Fatalf("%s: entity %d lists %v, want %v", label, e, g, w)
		}
	}
}

// randomCollection draws blocks over n1 × n2 entities with ascending
// member lists, as every construction yields them. Some entities are
// in no block; a block may have an empty side.
func randomCollection(rng *rand.Rand, n1, n2 int) *Collection {
	c := NewCollection(n1, n2)
	members := func(n int) []kb.EntityID {
		var out []kb.EntityID
		if n == 0 {
			return out
		}
		p := rng.Float64() * 0.5
		for e := range n {
			if rng.Float64() < p {
				out = append(out, kb.EntityID(e))
			}
		}
		return out
	}
	for i := range rng.Intn(12) {
		c.Blocks = append(c.Blocks, Block{Key: fmt.Sprint(i), E1: members(n1), E2: members(n2)})
	}
	return c
}

// TestIndexMatchesReference: on seeded random collections — empty ones
// and ones over empty KBs included — both sides of BuildIndex list
// exactly the reference's block positions, and one side-1 scratch
// reused through Reset across collections of different shapes indexes
// each as a fresh one would, leaking nothing from the previous build.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n1 = 40
	scratch := NewIndexSide(n1)
	for round := range 300 {
		c := randomCollection(rng, rng.Intn(n1+1), rng.Intn(30))
		assertIndexMatches(t, fmt.Sprintf("round %d fresh", round), c, c.BuildIndex())

		reused := randomCollection(rng, n1, rng.Intn(30))
		assertIndexMatches(t, fmt.Sprintf("round %d reused", round), reused, reused.BuildIndexInto(scratch))
		scratch.Reset()
	}
	for _, ds := range equivalenceDatasets(t) {
		c := referenceTokenBlocks(ds.KB1, ds.KB2)
		assertIndexMatches(t, ds.Name, c, c.BuildIndex())
	}
}

// TestBuildIndexIntoRejectsDirtySide: a side that was not Reset since
// its last build, or sized for another KB, is refused rather than
// silently mixed into the next index.
func TestBuildIndexIntoRejectsDirtySide(t *testing.T) {
	c := NewCollection(3, 2)
	c.Blocks = []Block{{Key: "k", E1: []kb.EntityID{0, 2}, E2: []kb.EntityID{1}}}
	scratch := NewIndexSide(3)
	c.BuildIndexInto(scratch)
	for label, side1 := range map[string]*IndexSide{"not reset": scratch, "wrong size": NewIndexSide(4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: BuildIndexInto accepted the side", label)
				}
			}()
			c.BuildIndexInto(side1)
		}()
	}
}
