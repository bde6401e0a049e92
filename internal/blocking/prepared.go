package blocking

import (
	"context"
	"slices"
	"sort"
	"strings"

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
// Each side is one sorted compressed-sparse-row table (postings): keys
// ascending, and the members of all keys in one array. Built, patched
// and decoded substrates share that layout, so a snapshot stores it as
// it is and reads it back with bulk copies (see binary.go).
//
// Prepared is immutable after Prepare and safe for concurrent joins.
// A mutated KB epoch derives its substrate with ApplyPatch (see
// patch.go), which rewrites only the edited runs of a copy instead of
// rebuilding the inverted index.
//
//minoaner:frozen
type Prepared struct {
	n1     int
	nameK  int
	tokens postings
	names  postings
}

// postings maps each blocking key of one side to its member entities:
// keys ascending and distinct, key i's members ascending in
// members[ends[i-1]:ends[i]] (from 0 for the first key). No posting is
// empty. The zero value holds no key.
type postings struct {
	keys    []string
	ends    []int32
	members []kb.EntityID
}

// start returns where key i's members start.
func (ps *postings) start(i int) int32 {
	if i == 0 {
		return 0
	}
	return ps.ends[i-1]
}

// posting returns the members of key i, capacity-clipped so that an
// append never reaches the next key's.
func (ps *postings) posting(i int) []kb.EntityID {
	end := ps.ends[i]
	return ps.members[ps.start(i):end:end]
}

// find returns the members of key, nil when the side lacks it.
func (ps *postings) find(key string) []kb.EntityID {
	if i, ok := slices.BinarySearch(ps.keys, key); ok {
		return ps.posting(i)
	}
	return nil
}

// seek returns the first position at or after from whose key is not
// below key (len(keys) when none is). It gallops from from, so a walk
// that seeks ascending keys pays O(m log(n/m)) for m seeks in n keys.
func seek(keys []string, from int, key string) int {
	hi, step := from, 1
	for hi < len(keys) && keys[hi] < key {
		from = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(keys))
	return from + sort.SearchStrings(keys[from:hi], key)
}

// holds reports, for each of the ascending, distinct keys, whether
// bound holds it: one galloping merge walk.
func (ps *postings) holds(keys []string) []bool {
	out := make([]bool, len(keys))
	j := 0
	for i, key := range keys {
		if j = seek(ps.keys, j, key); j == len(ps.keys) {
			break
		}
		out[i] = ps.keys[j] == key
	}
	return out
}

// Prepare builds the substrate of k for the given name-K, across the
// given worker count (<= 0 selects GOMAXPROCS). The result is identical
// at every count. A non-nil bound limits the substrate to the keys
// bound holds: the second side of a join keeps only the keys the first
// side can pair with.
func Prepare(k *kb.KB, nameK, workers int, bound *Prepared) *Prepared {
	w := parallel.Workers(workers)
	var boundTokens, boundNames *postings
	if bound != nil {
		boundTokens, boundNames = &bound.tokens, &bound.names
	}
	return &Prepared{
		n1:     k.Len(),
		nameK:  nameK,
		tokens: tokenPostings(k, boundTokens),
		names:  namePostings(k, nameK, w, boundNames),
	}
}

// tokenPostings inverts k's token bags with a counting sort over
// vocabulary IDs: the vocabulary is ascending, so the kept entries are
// the keys in order. A non-nil bound is consulted once per vocabulary
// entry.
func tokenPostings(k *kb.KB, bound *postings) postings {
	vocab := k.Vocabulary()
	var keep []bool
	if bound != nil {
		keep = bound.holds(vocab)
	}
	return invert(vocab, keep, k.Len(), func(e int) []int32 { return k.TokenIDs(kb.EntityID(e)) })
}

// invert lays out the postings of n entities whose keys are IDs into
// the ascending, distinct keys (keys of one entity distinct): one pass
// counts each key's members, one places them entity by entity, so every
// posting ascends. Keys that keep (when non-nil) rejects, and keys no
// entity holds, are dropped.
func invert(keys []string, keep []bool, n int, ids func(e int) []int32) postings {
	// next[t+1] counts key t's members; its prefix sums are where each
	// posting starts, and next[t] then advances as members are placed.
	next := make([]int32, len(keys)+1)
	for e := 0; e < n; e++ {
		for _, t := range ids(e) {
			if keep == nil || keep[t] {
				next[t+1]++
			}
		}
	}
	kept := 0
	for t := range keys {
		if next[t+1] > 0 {
			kept++
		}
		next[t+1] += next[t]
	}
	if kept == 0 {
		return postings{}
	}
	out := postings{
		keys:    make([]string, 0, kept),
		ends:    make([]int32, 0, kept),
		members: make([]kb.EntityID, next[len(keys)]),
	}
	for e := 0; e < n; e++ {
		for _, t := range ids(e) {
			if keep == nil || keep[t] {
				out.members[next[t]] = kb.EntityID(e)
				next[t]++
			}
		}
	}
	// next[t] is now where key t's posting ends, and the end of the
	// key before it where it starts.
	start := int32(0)
	for t, key := range keys {
		if end := next[t]; end > start {
			out.keys = append(out.keys, key)
			out.ends = append(out.ends, end)
			start = end
		}
	}
	return out
}

// namePostings inverts the name keys of k's nameK most distinctive
// attributes. Name keys are derived (normalized, deduplicated) rather
// than stored on the entity: they are computed in parallel into one
// array with a slot per name-attribute value, then inverted by
// keyPostings.
func namePostings(k *kb.KB, nameK, workers int, bound *postings) postings {
	attrs := k.TopNameAttributes(nameK)
	n := k.Len()
	if len(attrs) == 0 || n == 0 {
		return postings{}
	}
	// start[e] is where e's keys go: one slot per name-attribute value
	// bounds what AppendNames keeps after dropping empty and repeated
	// keys.
	start := make([]int32, n+1)
	for e := 0; e < n; e++ {
		room := int32(0)
		for _, av := range k.Entity(kb.EntityID(e)).Attrs {
			if slices.Contains(attrs, av.Pred) {
				room++
			}
		}
		start[e+1] = start[e] + room
	}
	keys := make([]string, start[n])
	held := make([]int32, n)
	_ = parallel.For(context.Background(), n, workers, func(_, lo, hi int) error {
		for e := lo; e < hi; e++ {
			slot := keys[start[e]:start[e]:start[e+1]]
			held[e] = int32(len(k.AppendNames(slot, kb.EntityID(e), attrs)))
		}
		return nil
	})
	return keyPostings(n, func(e int) []string { return keys[start[e] : start[e]+held[e]] }, bound)
}

// keyPostings inverts per-entity string keys (distinct within an
// entity): a serial pass numbers the distinct keys in first-appearance
// order, one sort ranks them, and invert's counting sort lays out the
// postings over the ranks. A non-nil bound drops the keys it lacks.
func keyPostings(n int, keysOf func(e int) []string, bound *postings) postings {
	at := make([]int32, n+1)
	for e := 0; e < n; e++ {
		at[e+1] = at[e] + int32(len(keysOf(e)))
	}
	number := make(map[string]int32)
	var distinct []string
	ids := make([]int32, at[n])
	for e := 0; e < n; e++ {
		for i, key := range keysOf(e) {
			id, ok := number[key]
			if !ok {
				id = int32(len(distinct))
				number[key] = id
				distinct = append(distinct, key)
			}
			ids[at[e]+int32(i)] = id
		}
	}
	order := make([]int32, len(distinct))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(distinct[a], distinct[b]) })
	rank := make([]int32, len(distinct))
	sorted := make([]string, len(distinct))
	for r, id := range order {
		rank[id] = int32(r)
		sorted[r] = distinct[id]
	}
	for i, id := range ids {
		ids[i] = rank[id]
	}
	var keep []bool
	if bound != nil {
		keep = bound.holds(sorted)
	}
	return invert(sorted, keep, n, func(e int) []int32 { return ids[at[e]:at[e+1]] })
}

// TokenPosting returns the members of one token key, ascending (nil
// when no entity of the KB holds the token).
func (p *Prepared) TokenPosting(key string) []kb.EntityID { return p.tokens.find(key) }

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
	return join(p1.n1, p2.n1, &p1.tokens, &p2.tokens)
}

// JoinNameBlocks is JoinTokenBlocks for name blocks.
func JoinNameBlocks(p1, p2 *Prepared) *Collection {
	return join(p1.n1, p2.n1, &p1.names, &p2.names)
}

// join merges the two sorted key lists: it walks the side holding fewer
// keys and gallops through the other, so joining a small bounded
// substrate costs its own keys (times a logarithm) only, and the blocks
// come out in key order.
func join(n1, n2 int, side1, side2 *postings) *Collection {
	swap := len(side2.keys) < len(side1.keys)
	walk, other := side1, side2
	if swap {
		walk, other = side2, side1
	}
	c := NewCollection(n1, n2)
	c.Blocks = make([]Block, 0, len(walk.keys))
	j := 0
	for i, key := range walk.keys {
		if j = seek(other.keys, j, key); j == len(other.keys) {
			break
		}
		if other.keys[j] != key {
			continue
		}
		mine, theirs := walk.posting(i), other.posting(j)
		if swap {
			mine, theirs = theirs, mine
		}
		c.Blocks = append(c.Blocks, Block{Key: key, E1: mine, E2: theirs})
	}
	return c
}
