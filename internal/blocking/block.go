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
	"fmt"
	"math"
	"slices"
	"sort"

	"minoaner/internal/kb"
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

// Index maps every entity to the ascending positions of the blocks
// that contain it: the access path of candidate scoring in every engine.
type Index struct {
	ByE1, ByE2 *IndexSide
}

// IndexSide is one side of an Index in compressed-sparse-row form:
// entity e's block positions are pos[start[e]:end[e]], ascending. Runs
// are laid out only for the entities a build meets, recorded in
// touched, so building and resetting a side cost the collection's
// members; only allocating one costs the KB's size.
type IndexSide struct {
	start, end []int32
	pos        []int32
	touched    []kb.EntityID
}

// NewIndexSide returns an empty side over n entities.
func NewIndexSide(n int) *IndexSide {
	return &IndexSide{start: make([]int32, n), end: make([]int32, n)}
}

// Len returns the side's entity count.
func (s *IndexSide) Len() int { return len(s.start) }

// Of returns e's block positions, ascending.
func (s *IndexSide) Of(e kb.EntityID) []int32 { return s.pos[s.start[e]:s.end[e]] }

// Reset empties the side for its next build, clearing exactly the runs
// the last build set.
func (s *IndexSide) Reset() {
	for _, e := range s.touched {
		s.start[e], s.end[e] = 0, 0
	}
	s.touched, s.pos = s.touched[:0], s.pos[:0]
}

// fill is a counting sort of one side's (1 or 2) memberships into an
// empty IndexSide: end counts each entity's blocks, the counts become
// run offsets in start (end then serves as the fill cursor), and the
// blocks are dropped in in position order, so every run is ascending.
func (s *IndexSide) fill(blocks []Block, side int) {
	members := func(i int) []kb.EntityID {
		if side == 1 {
			return blocks[i].E1
		}
		return blocks[i].E2
	}
	total := 0
	for i := range blocks {
		for _, e := range members(i) {
			if s.end[e] == 0 {
				s.touched = append(s.touched, e)
			}
			s.end[e]++
		}
		total += len(members(i))
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("blocking: %d block memberships overflow the index", total))
	}
	next := int32(0)
	for _, e := range s.touched {
		s.start[e], s.end[e], next = next, next, next+s.end[e]
	}
	s.pos = slices.Grow(s.pos, total)[:total]
	for i := range blocks {
		for _, e := range members(i) {
			s.pos[s.end[e]] = int32(i)
			s.end[e]++
		}
	}
}

// BuildIndex constructs the entity-to-blocks index of both sides.
func (c *Collection) BuildIndex() *Index {
	return c.BuildIndexInto(NewIndexSide(c.n1))
}

// BuildIndexInto is BuildIndex with side 1 built into side1: an empty
// IndexSide over the first KB, from NewIndexSide or Reset since its
// last build. A delta run indexes its small joined collection this way
// into scratch it reuses, paying for the joined blocks' members, never
// for |KB1|. The index reads side1 until side1 is Reset.
func (c *Collection) BuildIndexInto(side1 *IndexSide) *Index {
	if side1.Len() != c.n1 || len(side1.touched) > 0 {
		panic(fmt.Sprintf("blocking: side 1 over %d entities with %d runs is not an empty side for %d",
			side1.Len(), len(side1.touched), c.n1))
	}
	ix := &Index{ByE1: side1, ByE2: NewIndexSide(c.n2)}
	ix.ByE1.fill(c.Blocks, 1)
	ix.ByE2.fill(c.Blocks, 2)
	return ix
}

// Candidates1 returns the distinct KB2 entities co-occurring with e1 in
// any block, in ascending order.
func (c *Collection) Candidates1(idx *Index, e1 kb.EntityID) []kb.EntityID {
	blockIDs := idx.ByE1.Of(e1)
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
