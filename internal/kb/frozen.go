package kb

import (
	"context"

	"minoaner/internal/parallel"
)

// Frozen is a sealed neighbor view of one KB: the per-entity best
// neighbors under a fixed N (see TopNeighbors) together with the
// reverse index, both materialized once. Prepared-side matching derives
// these for the indexed KB a single time instead of once per query; the
// view is immutable after Freeze and safe for concurrent readers.
//
//minoaner:frozen
type Frozen struct {
	kb  *KB
	n   int
	top [][]EntityID // TopNeighbors(e, n) per entity
	rev [][]EntityID // entities listing e among their best neighbors
}

// Freeze materializes the neighbor view for the given N, computing the
// per-entity top-neighbor lists across the given worker count (<= 0
// selects GOMAXPROCS), self-scheduled: an entity's cost grows with its
// degree. Every slot is written once, so the result is identical at
// every count.
func (kb *KB) Freeze(n, workers int) *Frozen {
	top := make([][]EntityID, kb.Len())
	_ = parallel.ForDynamic(context.Background(), kb.Len(), parallel.Workers(workers), parallel.EntityGrain, func(_, start, end int) error {
		for e := start; e < end; e++ {
			top[e] = kb.TopNeighbors(EntityID(e), n)
		}
		return nil
	})
	return FrozenFromLists(kb, n, top, nil)
}

// FrozenFromLists assembles a Frozen view from already-materialized
// top-neighbor lists (loaded from a snapshot, or another view's lists
// re-seated on the KB of a new epoch) and, when the caller holds it,
// their reverse index; a nil rev is derived. The lists must be what
// Freeze would compute for the same KB and N, and rev what
// ReverseNeighbors yields for top; callers loading persisted lists
// validate ID ranges before calling.
func FrozenFromLists(kb *KB, n int, top, rev [][]EntityID) *Frozen {
	if rev == nil {
		rev = ReverseNeighbors(top, kb.Len())
	}
	return &Frozen{kb: kb, n: n, top: top, rev: rev}
}

// ReverseNeighbors inverts top-neighbor lists over a KB of size n: for
// each entity x, the entities that count x among their best neighbors,
// in ascending order (nil when nobody does). The lists share one backing
// array, each clipped to its own elements, so appending to one never
// reaches the next.
func ReverseNeighbors(top [][]EntityID, n int) [][]EntityID {
	// ends[x] first counts x's referrers, then — after the prefix sum —
	// walks from the start of x's run to its end as the run fills.
	ends := make([]int, n)
	total := 0
	for _, nbrs := range top {
		for _, x := range nbrs {
			ends[x]++
		}
		total += len(nbrs)
	}
	off := 0
	for x, c := range ends {
		ends[x] = off
		off += c
	}
	slab := make([]EntityID, total)
	for e, nbrs := range top {
		for _, x := range nbrs {
			slab[ends[x]] = EntityID(e)
			ends[x]++
		}
	}
	rev := make([][]EntityID, n)
	from := 0
	for x, to := range ends {
		if to > from {
			rev[x] = slab[from:to:to]
		}
		from = to
	}
	return rev
}

// KB returns the underlying knowledge base.
func (f *Frozen) KB() *KB { return f.kb }

// N returns the relation count the view was frozen for.
func (f *Frozen) N() int { return f.n }

// Top returns the frozen best-neighbor list of an entity. Callers must
// not mutate it.
func (f *Frozen) Top(e EntityID) []EntityID { return f.top[e] }

// TopLists returns the per-entity best-neighbor lists, indexed by
// entity ID. Callers must not mutate them.
func (f *Frozen) TopLists() [][]EntityID { return f.top }

// RevLists returns the reverse neighbor index, indexed by entity ID.
// Callers must not mutate it.
func (f *Frozen) RevLists() [][]EntityID { return f.rev }
