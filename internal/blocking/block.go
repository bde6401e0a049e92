// Package blocking implements the schema-agnostic blocking layer of
// MinoanER: Token Blocking (B_T), Name Blocking (B_N), Block Purging,
// and the block statistics reported in Table II of the paper.
//
// A block groups the entities of the two input KBs that share one
// blocking key. Only blocks with at least one entity from each KB are
// kept: in the clean-clean setting of the paper, single-sided blocks
// suggest no comparisons.
package blocking

import (
	"context"
	"fmt"
	"sort"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Block is one blocking-key bucket with members from both KBs.
type Block struct {
	Key string
	E1  []kb.EntityID // members from the first KB
	E2  []kb.EntityID // members from the second KB
}

// Comparisons returns ||b||, the number of cross-KB pairs the block
// suggests.
func (b *Block) Comparisons() int64 {
	return int64(len(b.E1)) * int64(len(b.E2))
}

// Assignments returns the number of entity-to-block assignments,
// |b.E1|+|b.E2|; Block Purging trades comparisons against assignments.
func (b *Block) Assignments() int64 {
	return int64(len(b.E1)) + int64(len(b.E2))
}

// Collection is an ordered set of blocks between one pair of KBs.
type Collection struct {
	Blocks []Block
	n1, n2 int // entity counts of the underlying KBs
}

// NewCollection returns an empty collection for KBs of the given sizes.
func NewCollection(n1, n2 int) *Collection {
	return &Collection{n1: n1, n2: n2}
}

// Size returns |B|, the number of blocks.
func (c *Collection) Size() int { return len(c.Blocks) }

// Comparisons returns ||B||, the total number of suggested comparisons
// (with multiplicity: a pair co-occurring in multiple blocks counts each
// time, as in the paper's Table II).
func (c *Collection) Comparisons() int64 {
	var total int64
	for i := range c.Blocks {
		total += c.Blocks[i].Comparisons()
	}
	return total
}

// KBSizes returns the entity counts (|E1|, |E2|) the collection was
// built for.
func (c *Collection) KBSizes() (int, int) { return c.n1, c.n2 }

// sortBlocks orders blocks by key so collections are deterministic
// regardless of map iteration order during construction.
func (c *Collection) sortBlocks() {
	sort.Slice(c.Blocks, func(i, j int) bool { return c.Blocks[i].Key < c.Blocks[j].Key })
}

// fromKeyMaps materializes a deterministic Collection out of per-shard,
// per-key member lists, dropping single-sided blocks. Each key lives in
// exactly one shard, so concatenating the shards and sorting by key
// yields the same collection a single map would.
func fromKeyMaps(shards []map[string]*keyBucket, n1, n2 int) *Collection {
	c := NewCollection(n1, n2)
	total := 0
	for _, m := range shards {
		total += len(m)
	}
	c.Blocks = make([]Block, 0, total)
	for _, m := range shards {
		for key, b := range m {
			if len(b.e1) == 0 || len(b.e2) == 0 {
				continue
			}
			c.Blocks = append(c.Blocks, Block{Key: key, E1: b.e1, E2: b.e2})
		}
	}
	c.sortBlocks()
	return c
}

type keyBucket struct {
	e1, e2 []kb.EntityID
}

// Index maps every entity to the positions of the blocks that contain
// it, enabling candidate enumeration during matching.
type Index struct {
	ByE1 [][]int32 // entity of KB1 -> indices into Collection.Blocks
	ByE2 [][]int32
}

// BuildIndex constructs the entity-to-blocks index for the collection,
// sharded across GOMAXPROCS workers; see BuildIndexN.
func (c *Collection) BuildIndex() *Index {
	return c.BuildIndexN(0)
}

// BuildIndexN is BuildIndex with an explicit worker count (<= 0 selects
// GOMAXPROCS). Each worker indexes a contiguous block range into a
// partial index; per-entity lists are then concatenated in block-range
// order, so every list stays sorted by block position and the result is
// bit-identical at any worker count.
func (c *Collection) BuildIndexN(workers int) *Index {
	w := parallel.Workers(workers)
	if w > len(c.Blocks) {
		w = len(c.Blocks)
	}
	if w <= 1 {
		idx := &Index{
			ByE1: make([][]int32, c.n1),
			ByE2: make([][]int32, c.n2),
		}
		c.indexRange(idx, 0, len(c.Blocks))
		return idx
	}
	partials := make([]*Index, w)
	chunk := (len(c.Blocks) + w - 1) / w
	_ = parallel.For(context.Background(), w, w, func(worker, _, _ int) error {
		lo := worker * chunk
		if lo >= len(c.Blocks) {
			return nil
		}
		hi := lo + chunk
		if hi > len(c.Blocks) {
			hi = len(c.Blocks)
		}
		p := &Index{
			ByE1: make([][]int32, c.n1),
			ByE2: make([][]int32, c.n2),
		}
		c.indexRange(p, lo, hi)
		partials[worker] = p
		return nil
	})
	idx := &Index{
		ByE1: make([][]int32, c.n1),
		ByE2: make([][]int32, c.n2),
	}
	mergeIndexSide := func(out [][]int32, side func(*Index) [][]int32) {
		_ = parallel.For(context.Background(), len(out), w, func(_, start, end int) error {
			for e := start; e < end; e++ {
				total := 0
				for _, p := range partials {
					if p != nil {
						total += len(side(p)[e])
					}
				}
				if total == 0 {
					continue // keep nil, as the sequential path does
				}
				merged := make([]int32, 0, total)
				for _, p := range partials {
					if p != nil {
						merged = append(merged, side(p)[e]...)
					}
				}
				out[e] = merged
			}
			return nil
		})
	}
	mergeIndexSide(idx.ByE1, func(p *Index) [][]int32 { return p.ByE1 })
	mergeIndexSide(idx.ByE2, func(p *Index) [][]int32 { return p.ByE2 })
	return idx
}

// indexRange appends the block positions [lo,hi) to the index.
func (c *Collection) indexRange(idx *Index, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		b := &c.Blocks[bi]
		for _, e := range b.E1 {
			idx.ByE1[e] = append(idx.ByE1[e], int32(bi))
		}
		for _, e := range b.E2 {
			idx.ByE2[e] = append(idx.ByE2[e], int32(bi))
		}
	}
}

// Candidates1 returns the distinct KB2 entities co-occurring with e1 in
// any block, in ascending order.
func (c *Collection) Candidates1(idx *Index, e1 kb.EntityID) []kb.EntityID {
	blockIDs := idx.ByE1[e1]
	if len(blockIDs) == 0 {
		return nil
	}
	seen := make(map[kb.EntityID]struct{})
	var out []kb.EntityID
	for _, bi := range blockIDs {
		for _, e := range c.Blocks[bi].E2 {
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FindBlock locates the block with the given key by binary search
// (blocks are key-sorted) and returns its position, or -1 when absent.
func (c *Collection) FindBlock(key string) int32 {
	lo := sort.Search(len(c.Blocks), func(i int) bool { return c.Blocks[i].Key >= key })
	if lo < len(c.Blocks) && c.Blocks[lo].Key == key {
		return int32(lo)
	}
	return -1
}

// Union merges two collections over the same KB pair into one (keys are
// namespaced by collection to avoid accidental merging of distinct
// semantics, e.g. a name key equal to a token key). The inputs must
// have been built for the same KB sizes — a mismatched pair would
// carry entity IDs beyond the other KB's range and panic or silently
// drop members in BuildIndex — and member slices are copied, so the
// merged collection shares no storage with its inputs.
func Union(prefix1 string, a *Collection, prefix2 string, b *Collection) *Collection {
	if a.n1 != b.n1 || a.n2 != b.n2 {
		panic(fmt.Sprintf("blocking: Union over collections of mismatched KB sizes: (%d,%d) vs (%d,%d)",
			a.n1, a.n2, b.n1, b.n2))
	}
	out := NewCollection(a.n1, a.n2)
	out.Blocks = make([]Block, 0, len(a.Blocks)+len(b.Blocks))
	appendPrefixed := func(prefix string, blocks []Block) {
		for _, blk := range blocks {
			out.Blocks = append(out.Blocks, Block{
				Key: prefix + blk.Key,
				E1:  append([]kb.EntityID(nil), blk.E1...),
				E2:  append([]kb.EntityID(nil), blk.E2...),
			})
		}
	}
	appendPrefixed(prefix1, a.Blocks)
	appendPrefixed(prefix2, b.Blocks)
	out.sortBlocks()
	return out
}
