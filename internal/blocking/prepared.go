package blocking

import (
	"context"
	"sort"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Prepared is the one-sided blocking substrate of a KB: every token
// and name key of the KB mapped to its member entities. It is the one
// inverted-index builder of the package: every two-sided collection is
// the join of two substrates (JoinTokenBlocks, JoinNameBlocks), so
// purging, weighting and matching see the same blocks whichever engine
// derived them. A delta query joins the frozen substrate of KB1 with
// the delta's, bounded by it, paying for the delta's keys only.
//
// The per-key entity lists double as the KB-side EF counts of the ARCS
// weights (EF_KB(t) == len(posting)).
//
// Prepared is immutable after Prepare and safe for concurrent joins.
// A mutated KB epoch derives its substrate with ApplyPatch (see
// patch.go), which rewrites only the touched keys in a copy of the key
// maps instead of rebuilding the inverted index.
//
//minoaner:frozen
type Prepared struct {
	n1    int
	nameK int
	// tokens and names map each blocking key of the prepared KB to its
	// member entities in ascending ID order.
	tokens map[string][]kb.EntityID
	names  map[string][]kb.EntityID
}

// Prepare builds the substrate of k for the given name-K, across the
// given worker count (<= 0 selects GOMAXPROCS). The result is identical
// at every count. A non-nil bound limits the substrate to the keys
// bound holds: the second side of a join keeps only the keys the first
// side can pair with.
func Prepare(k *kb.KB, nameK, workers int, bound *Prepared) *Prepared {
	w := parallel.Workers(workers)
	var boundTokens, boundNames map[string][]kb.EntityID
	if bound != nil {
		boundTokens, boundNames = bound.tokens, bound.names
	}
	return &Prepared{
		n1:     k.Len(),
		nameK:  nameK,
		tokens: tokenPostings(k, boundTokens),
		names:  namePostings(k, nameK, w, boundNames),
	}
}

// tokenPostings inverts k's token bags with a counting sort over
// vocabulary IDs: one pass counts each token's members, one places
// them, entity by entity, so every member list ascends. All lists share
// one backing array, and the map gets one insert per kept token. A
// non-nil bound is consulted once per vocabulary entry (see
// buildPostings).
func tokenPostings(k *kb.KB, bound map[string][]kb.EntityID) map[string][]kb.EntityID {
	vocab := k.Vocabulary()
	var keep []bool
	if bound != nil {
		keep = make([]bool, len(vocab))
		for t, tok := range vocab {
			_, keep[t] = bound[tok]
		}
	}
	// next[t+1] counts token t's members; its prefix sums are where each
	// list starts, and next[t] then advances as members are placed.
	next := make([]int32, len(vocab)+1)
	n := k.Len()
	for e := 0; e < n; e++ {
		for _, t := range k.TokenIDs(kb.EntityID(e)) {
			if keep == nil || keep[t] {
				next[t+1]++
			}
		}
	}
	kept := 0
	for t := range vocab {
		if next[t+1] > 0 {
			kept++
		}
		next[t+1] += next[t]
	}
	members := make([]kb.EntityID, next[len(vocab)])
	for e := 0; e < n; e++ {
		for _, t := range k.TokenIDs(kb.EntityID(e)) {
			if keep == nil || keep[t] {
				members[next[t]] = kb.EntityID(e)
				next[t]++
			}
		}
	}
	// next[t] is now where token t's list ends, and next[t-1] where it
	// starts.
	out := make(map[string][]kb.EntityID, kept)
	start := int32(0)
	for t, tok := range vocab {
		if end := next[t]; end > start {
			out[tok] = members[start:end:end]
			start = end
		}
	}
	return out
}

// namePostings inverts the name keys of k's nameK most distinctive
// attributes. Name keys are derived (normalized, deduplicated) rather
// than stored on the entity, so they are computed once per entity up
// front instead of once per key shard.
func namePostings(k *kb.KB, nameK, workers int, bound map[string][]kb.EntityID) map[string][]kb.EntityID {
	attrs := k.TopNameAttributes(nameK)
	names := make([][]string, k.Len())
	_ = parallel.For(context.Background(), k.Len(), workers, func(_, start, end int) error {
		for e := start; e < end; e++ {
			names[e] = k.Names(kb.EntityID(e), attrs)
		}
		return nil
	})
	return buildPostings(workers, k.Len(), func(e int) []string { return names[e] }, bound)
}

// posting is one key's member list under construction. Keys map to
// pointers, so adding a member costs a single map lookup.
type posting struct{ ids []kb.EntityID }

// buildPostings inverts per-entity key lists into key -> members; a
// non-nil bound drops the keys it lacks (a substrate's key maps are
// never nil, so an empty bound drops every key). Keys are sharded by
// hash across workers, and each worker scans the entities in ID order,
// so member lists are ascending and the merged map is independent of
// the worker count.
func buildPostings(workers, n int, keys func(e int) []string, bound map[string][]kb.EntityID) map[string][]kb.EntityID {
	scan := func(shard int) map[string]*posting {
		m := make(map[string]*posting)
		for e := 0; e < n; e++ {
			for _, key := range keys(e) {
				if workers > 1 && parallel.ShardOf(key, workers) != shard {
					continue
				}
				b := m[key]
				if b == nil {
					if _, ok := bound[key]; bound != nil && !ok {
						continue
					}
					b = new(posting)
					m[key] = b
				}
				b.ids = append(b.ids, kb.EntityID(e))
			}
		}
		return m
	}
	shards := make([]map[string]*posting, workers)
	_ = parallel.For(context.Background(), workers, workers, func(w, _, _ int) error {
		shards[w] = scan(w)
		return nil
	})
	// Each key lives in exactly one shard; merging is a plain union.
	total := 0
	for _, m := range shards {
		total += len(m)
	}
	out := make(map[string][]kb.EntityID, total)
	for _, m := range shards {
		for key, b := range m {
			out[key] = b.ids
		}
	}
	return out
}

// TokenPosting returns the members of one token key, ascending (nil
// when no entity of the KB holds the token).
func (p *Prepared) TokenPosting(key string) []kb.EntityID { return p.tokens[key] }

// KBSize returns the entity count of the prepared KB.
func (p *Prepared) KBSize() int { return p.n1 }

// NameK returns the name-attribute count the substrate was prepared
// for; a join is only valid between substrates of the same parameter.
func (p *Prepared) NameK() int { return p.nameK }

// JoinTokenBlocks derives the two-sided token-block collection of a KB
// pair from the two one-sided substrates: one block per key held by
// both sides, member slices shared with the postings, blocks in key
// order. Either side may be bounded by the other (see Prepare).
func JoinTokenBlocks(p1, p2 *Prepared) *Collection {
	return join(p1.n1, p2.n1, p1.tokens, p2.tokens)
}

// JoinNameBlocks is JoinTokenBlocks for name blocks.
func JoinNameBlocks(p1, p2 *Prepared) *Collection {
	return join(p1.n1, p2.n1, p1.names, p2.names)
}

// join walks the side holding fewer keys and looks each up in the
// other, so joining a small bounded substrate costs its own keys only.
func join(n1, n2 int, side1, side2 map[string][]kb.EntityID) *Collection {
	swap := len(side2) < len(side1)
	walk, other := side1, side2
	if swap {
		walk, other = side2, side1
	}
	c := NewCollection(n1, n2)
	c.Blocks = make([]Block, 0, len(walk))
	for key, mine := range walk {
		theirs := other[key]
		if len(mine) == 0 || len(theirs) == 0 {
			continue
		}
		if swap {
			mine, theirs = theirs, mine
		}
		c.Blocks = append(c.Blocks, Block{Key: key, E1: mine, E2: theirs})
	}
	c.sortBlocks()
	return c
}

// sortedKeys returns map keys in ascending order (for deterministic
// serialization).
func sortedKeys(m map[string][]kb.EntityID) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
