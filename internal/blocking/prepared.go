package blocking

import (
	"context"
	"sort"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Prepared is the frozen one-sided blocking substrate of a KB: every
// token and name key of the KB mapped to its member entities, built
// once so that delta queries probe it with only the delta's keys
// instead of re-scanning the KB per query. A probed collection is
// bit-identical to the one TokenBlocksN/NameBlocksN build for the same
// pair, so downstream purging, weighting, and matching see exactly the
// evidence the full construction would produce.
//
// The per-key entity lists double as the KB-side EF counts of the ARCS
// weights (EF_KB(t) == len(posting)), and Purge derives its
// comparison-cutoff thresholds from the probed collection unchanged.
//
// Prepared is immutable after Prepare and safe for concurrent probes.
// A mutated KB epoch derives its substrate with ApplyPatch (see
// patch.go), which layers the touched keys over the frozen base as a
// copy-on-write overlay instead of rebuilding the inverted index.
//
//minoaner:frozen
type Prepared struct {
	n1    int
	nameK int
	// tokens and names map each blocking key of the prepared KB to its
	// member entities in ascending ID order. On an overlay layer they
	// hold only the edited keys (empty slices tombstone vanished
	// keys); lookups fall through to base.
	tokens map[string][]kb.EntityID
	names  map[string][]kb.EntityID
	base   *Prepared
	depth  int
}

// Prepare builds the frozen substrate of kb1 for the given name-K,
// across the given worker count (<= 0 selects GOMAXPROCS). The result
// is identical at every count.
func Prepare(kb1 *kb.KB, nameK, workers int) *Prepared {
	w := parallel.Workers(workers)
	p := &Prepared{n1: kb1.Len(), nameK: nameK}
	p.tokens = buildPostings(w, kb1.Len(), func(e int) []string { return kb1.Tokens(kb.EntityID(e)) })
	attrs := kb1.TopNameAttributes(nameK)
	names := entityNames(kb1, attrs, w)
	p.names = buildPostings(w, kb1.Len(), func(e int) []string { return names[e] })
	return p
}

// buildPostings inverts per-entity key lists into key -> members. Keys
// are sharded by hash across workers (as in shardedBlocks), and each
// worker scans the entities in ID order, so member lists are ascending
// and the merged map is independent of the worker count.
func buildPostings(workers, n int, keys func(e int) []string) map[string][]kb.EntityID {
	scan := func(shard, workers int) map[string][]kb.EntityID {
		m := make(map[string][]kb.EntityID)
		for e := 0; e < n; e++ {
			for _, key := range keys(e) {
				if shard != singleShard && parallel.ShardOf(key, workers) != shard {
					continue
				}
				m[key] = append(m[key], kb.EntityID(e))
			}
		}
		return m
	}
	if workers <= 1 {
		return scan(singleShard, 1)
	}
	shards := make([]map[string][]kb.EntityID, workers)
	_ = parallel.For(context.Background(), workers, workers, func(w, _, _ int) error {
		shards[w] = scan(w, workers)
		return nil
	})
	// Each key lives in exactly one shard; merging is a plain union.
	total := 0
	for _, m := range shards {
		total += len(m)
	}
	out := make(map[string][]kb.EntityID, total)
	for _, m := range shards {
		for key, members := range m {
			out[key] = members
		}
	}
	return out
}

// KBSize returns the entity count of the prepared KB.
func (p *Prepared) KBSize() int { return p.n1 }

// NameK returns the name-attribute count the substrate was prepared
// for; a probe is only valid under the same parameter.
func (p *Prepared) NameK() int { return p.nameK }

// probeCancelStride is how many delta entities a probe scans between
// context checks.
const probeCancelStride = 1024

// ProbeTokenBlocks builds the token-block collection of (prepared KB,
// delta) by probing the frozen token index with the delta's tokens
// only: O(delta tokens) work instead of a full re-scan of the prepared
// KB. The result is bit-identical to TokenBlocksN(kb1, delta) — same
// blocks, same key order, same member order. KB-side member slices are
// shared with the substrate; callers must not mutate them.
func (p *Prepared) ProbeTokenBlocks(ctx context.Context, delta *kb.KB) (*Collection, error) {
	return p.probe(ctx, delta.Len(), p.lookupToken, func(e int) []string { return delta.Tokens(kb.EntityID(e)) })
}

// ProbeNameBlocks builds the name-block collection of (prepared KB,
// delta) by probing the frozen name index with the delta's name keys.
// The delta's own top name attributes are derived from the delta, as in
// the full construction; the result is bit-identical to
// NameBlocksN(kb1, delta, nameK).
func (p *Prepared) ProbeNameBlocks(ctx context.Context, delta *kb.KB) (*Collection, error) {
	attrs := delta.TopNameAttributes(p.nameK)
	return p.probe(ctx, delta.Len(), p.lookupName, func(e int) []string { return delta.Names(kb.EntityID(e), attrs) })
}

// probe assembles the two-sided blocks for the delta's keys: a key
// yields a block exactly when the prepared side holds it, mirroring the
// full construction's drop of single-sided blocks. Delta members are
// appended in entity order and blocks sorted by key, matching
// fromKeyMaps exactly.
func (p *Prepared) probe(ctx context.Context, nDelta int, lookup func(string) []kb.EntityID, keys func(e int) []string) (*Collection, error) {
	type bucket struct {
		e1, e2 []kb.EntityID
	}
	buckets := make(map[string]*bucket)
	for e := 0; e < nDelta; e++ {
		if e%probeCancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		id := kb.EntityID(e)
		for _, key := range keys(e) {
			b := buckets[key]
			if b == nil {
				members := lookup(key)
				if len(members) == 0 {
					continue
				}
				b = &bucket{e1: members}
				buckets[key] = b
			}
			b.e2 = append(b.e2, id)
		}
	}
	c := NewCollection(p.n1, nDelta)
	c.Blocks = make([]Block, 0, len(buckets))
	for key, b := range buckets {
		c.Blocks = append(c.Blocks, Block{Key: key, E1: b.e1, E2: b.e2})
	}
	c.sortBlocks()
	return c, nil
}

// BuildIndexSide2 indexes only the delta side of a (typically probed)
// collection: entity -> ascending block positions, exactly the ByE2
// half of BuildIndex without paying O(|KB1|) for the other side.
func (c *Collection) BuildIndexSide2() [][]int32 {
	by := make([][]int32, c.n2)
	for bi := range c.Blocks {
		for _, e := range c.Blocks[bi].E2 {
			by[e] = append(by[e], int32(bi))
		}
	}
	return by
}

// BuildIndexSide1Sparse indexes the prepared side of a probed
// collection as a sparse map — only entities that actually appear in a
// block get an entry, so the cost is the collection's side-1 membership
// rather than O(|KB1|). Lists are in ascending block position, matching
// BuildIndex's ByE1 entries for the touched entities.
func (c *Collection) BuildIndexSide1Sparse() map[kb.EntityID][]int32 {
	by := make(map[kb.EntityID][]int32)
	for bi := range c.Blocks {
		for _, e := range c.Blocks[bi].E1 {
			by[e] = append(by[e], int32(bi))
		}
	}
	return by
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
