// Live maintenance of the one-sided blocking substrate and of block
// collections. A mutated KB epoch touches only the keys of the changed
// entities; Prepared.ApplyPatch layers those edits over the frozen
// substrate as a copy-on-write overlay (flattening periodically and on
// ID remaps), and Collection.Patch splices the same edits into a
// key-sorted two-sided collection. Both operations reproduce, key for
// key and member for member, what Prepare / TokenBlocksN /
// NameBlocksN build from scratch over the mutated KBs.
package blocking

import (
	"sort"

	"minoaner/internal/kb"
)

// maxOverlayDepth bounds the overlay chain before ApplyPatch flattens:
// lookups walk the chain, so unbounded depth would make probes degrade
// with mutation count.
const maxOverlayDepth = 8

// KeyEdit rewrites one posting: members to drop and members to insert,
// both ascending. A member present in both lists stays (remove then
// re-add), so callers can submit an entity's full old and new key sets
// without intersecting them first.
type KeyEdit struct {
	Key    string
	Remove []kb.EntityID
	Add    []kb.EntityID
}

// PreparedPatch is one epoch's worth of substrate edits. Remap, when
// non-nil, translates every surviving member from the old ID space
// (-1 marks deleted entities) and NewSize is the mutated KB's entity
// count; edits are expressed in the new space.
type PreparedPatch struct {
	Tokens  []KeyEdit
	Names   []KeyEdit
	Remap   []kb.EntityID
	NewSize int
}

// ApplyPatch returns the substrate with the patch applied. Without a
// remap the result is an overlay sharing every untouched posting with
// the receiver (flattened once the chain grows past a small depth);
// with a remap every posting is rewritten. The receiver is unchanged
// and both remain safe for concurrent probes.
func (p *Prepared) ApplyPatch(pt PreparedPatch) *Prepared {
	if pt.Remap != nil {
		flat := p.flattenRemapped(pt.Remap, pt.NewSize)
		applyEditsFlat(flat.tokens, pt.Tokens, flat.lookupToken)
		applyEditsFlat(flat.names, pt.Names, flat.lookupName)
		return flat
	}
	out := &Prepared{
		n1:     p.n1,
		nameK:  p.nameK,
		tokens: editLayer(pt.Tokens, p.lookupToken),
		names:  editLayer(pt.Names, p.lookupName),
		base:   p,
		depth:  p.depth + 1,
	}
	if out.depth > maxOverlayDepth {
		return out.Flatten()
	}
	return out
}

// editLayer materializes one overlay layer: the edited postings only
// (empty slices are tombstones).
func editLayer(edits []KeyEdit, lookup func(string) []kb.EntityID) map[string][]kb.EntityID {
	layer := make(map[string][]kb.EntityID, len(edits))
	for _, e := range edits {
		layer[e.Key] = applyEdit(lookup(e.Key), e)
	}
	return layer
}

// applyEditsFlat applies edits directly onto flat maps (the remap
// path), deleting keys whose postings empty out.
func applyEditsFlat(m map[string][]kb.EntityID, edits []KeyEdit, lookup func(string) []kb.EntityID) {
	for _, e := range edits {
		members := applyEdit(lookup(e.Key), e)
		if len(members) == 0 {
			delete(m, e.Key)
		} else {
			m[e.Key] = members
		}
	}
}

// applyEdit merges one posting with its edit, preserving ascending
// order and uniqueness.
func applyEdit(old []kb.EntityID, e KeyEdit) []kb.EntityID {
	out := make([]kb.EntityID, 0, len(old)+len(e.Add))
	ri, ai := 0, 0
	for _, id := range old {
		for ai < len(e.Add) && e.Add[ai] < id {
			out = append(out, e.Add[ai])
			ai++
		}
		for ri < len(e.Remove) && e.Remove[ri] < id {
			ri++
		}
		if ri < len(e.Remove) && e.Remove[ri] == id {
			ri++
			continue
		}
		if ai < len(e.Add) && e.Add[ai] == id {
			ai++ // re-added member: keep exactly one copy
		}
		out = append(out, id)
	}
	out = append(out, e.Add[ai:]...)
	return out
}

// TokenPosting returns the token posting of a key (nil when the key
// blocks nothing), resolving overlay layers. Callers must not mutate
// the returned slice.
func (p *Prepared) TokenPosting(key string) []kb.EntityID { return p.lookupToken(key) }

// NamePosting is TokenPosting for name keys.
func (p *Prepared) NamePosting(key string) []kb.EntityID { return p.lookupName(key) }

// lookupToken resolves a token posting through the overlay chain; nil
// means the key blocks nothing (absent or tombstoned).
func (p *Prepared) lookupToken(key string) []kb.EntityID {
	for q := p; q != nil; q = q.base {
		if members, ok := q.tokens[key]; ok {
			return members
		}
	}
	return nil
}

// lookupName is lookupToken for name postings.
func (p *Prepared) lookupName(key string) []kb.EntityID {
	for q := p; q != nil; q = q.base {
		if members, ok := q.names[key]; ok {
			return members
		}
	}
	return nil
}

// forEachPosting visits every live posting of one side (side selects
// the token or name maps), in no particular order.
func (p *Prepared) forEachPosting(side func(*Prepared) map[string][]kb.EntityID, fn func(key string, members []kb.EntityID)) {
	if p.base == nil {
		for key, members := range side(p) {
			if len(members) > 0 {
				fn(key, members)
			}
		}
		return
	}
	shadowed := make(map[string]struct{})
	for q := p; q != nil; q = q.base {
		for key, members := range side(q) {
			if _, seen := shadowed[key]; seen {
				continue
			}
			shadowed[key] = struct{}{}
			if len(members) > 0 {
				fn(key, members)
			}
		}
	}
}

func tokenSide(p *Prepared) map[string][]kb.EntityID { return p.tokens }
func nameSide(p *Prepared) map[string][]kb.EntityID  { return p.names }

// Flatten collapses an overlay chain into a single-layer substrate
// (identity for already-flat ones). Serialization and compaction use
// it; probes work on any depth.
//
//minoaner:mutator out is allocated here and unpublished until return; the receiver is never written
func (p *Prepared) Flatten() *Prepared {
	if p.base == nil {
		return p
	}
	out := &Prepared{
		n1:     p.n1,
		nameK:  p.nameK,
		tokens: make(map[string][]kb.EntityID),
		names:  make(map[string][]kb.EntityID),
	}
	p.forEachPosting(tokenSide, func(key string, members []kb.EntityID) { out.tokens[key] = members })
	p.forEachPosting(nameSide, func(key string, members []kb.EntityID) { out.names[key] = members })
	return out
}

// flattenRemapped flattens while translating every member through the
// remap, dropping deleted entities and postings that empty out.
//
//minoaner:mutator out is allocated here and unpublished until return; the receiver is never written
func (p *Prepared) flattenRemapped(remap []kb.EntityID, newSize int) *Prepared {
	out := &Prepared{
		n1:     newSize,
		nameK:  p.nameK,
		tokens: make(map[string][]kb.EntityID),
		names:  make(map[string][]kb.EntityID),
	}
	move := func(members []kb.EntityID) []kb.EntityID {
		mapped := make([]kb.EntityID, 0, len(members))
		for _, id := range members {
			if nid := remap[id]; nid >= 0 {
				mapped = append(mapped, nid)
			}
		}
		if len(mapped) == 0 {
			return nil
		}
		return mapped
	}
	p.forEachPosting(tokenSide, func(key string, members []kb.EntityID) {
		if mapped := move(members); mapped != nil {
			out.tokens[key] = mapped
		}
	})
	p.forEachPosting(nameSide, func(key string, members []kb.EntityID) {
		if mapped := move(members); mapped != nil {
			out.names[key] = mapped
		}
	})
	return out
}

// RebuildNames returns the substrate with its name postings rebuilt
// from scratch for the given KB and name-K — the fallback when a
// mutation reorders the KB's most distinctive attributes, which
// invalidates every name key at once. Token postings are shared (the
// receiver is flattened first so the result is single-layer).
func (p *Prepared) RebuildNames(kb1 *kb.KB, nameK, workers int) *Prepared {
	flat := p.Flatten()
	attrs := kb1.TopNameAttributes(nameK)
	names := entityNames(kb1, attrs, workers)
	return &Prepared{
		n1:     flat.n1,
		nameK:  nameK,
		tokens: flat.tokens,
		names:  buildPostings(workers, kb1.Len(), func(e int) []string { return names[e] }),
	}
}

// JoinTokenBlocks derives the two-sided token-block collection of a KB
// pair from the two one-sided substrates: one block per key held by
// both sides, member slices shared with the postings. The result is
// bit-identical to TokenBlocksN over the same KBs.
func JoinTokenBlocks(p1, p2 *Prepared) *Collection {
	return join(p1, p2, tokenSide, (*Prepared).lookupToken)
}

// JoinNameBlocks is JoinTokenBlocks for name blocks, bit-identical to
// NameBlocksN.
func JoinNameBlocks(p1, p2 *Prepared) *Collection {
	return join(p1, p2, nameSide, (*Prepared).lookupName)
}

func join(p1, p2 *Prepared, side func(*Prepared) map[string][]kb.EntityID, lookup func(*Prepared, string) []kb.EntityID) *Collection {
	c := NewCollection(p1.n1, p2.n1)
	p1.forEachPosting(side, func(key string, e1 []kb.EntityID) {
		if e2 := lookup(p2, key); len(e2) > 0 {
			c.Blocks = append(c.Blocks, Block{Key: key, E1: e1, E2: e2})
		}
	})
	c.sortBlocks()
	return c
}

// CollectionPatch updates a key-sorted two-sided collection for one
// epoch: the changed keys (sorted, unique) are re-derived through the
// post-patch substrate lookups, every other block survives with its
// members remapped (or shared outright when the side's IDs did not
// move).
type CollectionPatch struct {
	Keys             []string
	Lookup1, Lookup2 func(key string) []kb.EntityID
	Remap1, Remap2   []kb.EntityID // old->new, -1 deleted; nil = identity
	N1, N2           int           // mutated KB sizes
}

// Patch returns the patched collection; the receiver is unchanged.
func (c *Collection) Patch(p CollectionPatch) *Collection {
	out := NewCollection(p.N1, p.N2)
	out.Blocks = make([]Block, 0, len(c.Blocks)+len(p.Keys))
	emit := func(key string) {
		e1, e2 := p.Lookup1(key), p.Lookup2(key)
		if len(e1) > 0 && len(e2) > 0 {
			out.Blocks = append(out.Blocks, Block{Key: key, E1: e1, E2: e2})
		}
	}
	ki := 0
	for i := range c.Blocks {
		b := &c.Blocks[i]
		for ki < len(p.Keys) && p.Keys[ki] < b.Key {
			emit(p.Keys[ki]) // key absent before, possibly a block now
			ki++
		}
		if ki < len(p.Keys) && p.Keys[ki] == b.Key {
			emit(p.Keys[ki])
			ki++
			continue
		}
		e1 := remapMembers(b.E1, p.Remap1)
		e2 := remapMembers(b.E2, p.Remap2)
		if len(e1) == 0 || len(e2) == 0 {
			continue // every member was a deleted entity: block vanishes
		}
		out.Blocks = append(out.Blocks, Block{Key: b.Key, E1: e1, E2: e2})
	}
	for ; ki < len(p.Keys); ki++ {
		emit(p.Keys[ki])
	}
	return out
}

// remapMembers translates a member list (identity when remap is nil),
// dropping deleted entities — deletions are carried entirely by the
// remap, so deleted members appear in otherwise-untouched blocks.
func remapMembers(members []kb.EntityID, remap []kb.EntityID) []kb.EntityID {
	if remap == nil {
		return members
	}
	out := make([]kb.EntityID, 0, len(members))
	for _, id := range members {
		if nid := remap[id]; nid >= 0 {
			out = append(out, nid)
		}
	}
	return out
}

// SortedKeySet deduplicates and sorts a key list (the Keys input of
// Patch).
func SortedKeySet(keys []string) []string {
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// BuildPreparedPatch derives the substrate patch of one KB mutation
// from the epoch diff: every changed entity removes its old token and
// name keys and adds its new ones, inserted entities add theirs, and
// deleted entities are handled by the remap (their IDs translate to
// -1). The name-attribute lists must rank the same predicates on both
// sides — when a mutation reorders a KB's most distinctive attributes,
// fall back to RebuildNames instead.
func BuildPreparedPatch(old, new *kb.KB, d *kb.Diff, oldNameAttrs, newNameAttrs []int32) PreparedPatch {
	tokens := make(map[string]*KeyEdit)
	names := make(map[string]*KeyEdit)
	edit := func(m map[string]*KeyEdit, key string) *KeyEdit {
		e := m[key]
		if e == nil {
			e = &KeyEdit{Key: key}
			m[key] = e
		}
		return e
	}
	for _, e := range d.AttrsChanged {
		oldID := d.Back[e]
		for _, tok := range old.Tokens(oldID) {
			ke := edit(tokens, tok)
			ke.Remove = append(ke.Remove, e)
		}
		for _, tok := range new.Tokens(e) {
			ke := edit(tokens, tok)
			ke.Add = append(ke.Add, e)
		}
		for _, key := range old.Names(oldID, oldNameAttrs) {
			ke := edit(names, key)
			ke.Remove = append(ke.Remove, e)
		}
		for _, key := range new.Names(e, newNameAttrs) {
			ke := edit(names, key)
			ke.Add = append(ke.Add, e)
		}
	}
	for _, e := range d.Inserted {
		for _, tok := range new.Tokens(e) {
			ke := edit(tokens, tok)
			ke.Add = append(ke.Add, e)
		}
		for _, key := range new.Names(e, newNameAttrs) {
			ke := edit(names, key)
			ke.Add = append(ke.Add, e)
		}
	}
	// Deleted entities are dropped by the remap itself; their keys are
	// still recorded (as empty edits) so every downstream consumer —
	// collection patching, affected-set scoring — sees those blocks as
	// changed.
	for _, oldID := range d.Deleted {
		for _, tok := range old.Tokens(oldID) {
			edit(tokens, tok)
		}
		for _, key := range old.Names(oldID, oldNameAttrs) {
			edit(names, key)
		}
	}
	pt := PreparedPatch{Tokens: finalizeEdits(tokens), Names: finalizeEdits(names), NewSize: new.Len()}
	if d.Shifted() {
		pt.Remap = d.Remap
	}
	return pt
}

// finalizeEdits orders the edit set deterministically: keys ascending,
// member lists ascending.
func finalizeEdits(m map[string]*KeyEdit) []KeyEdit {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KeyEdit, 0, len(keys))
	for _, k := range keys {
		e := m[k]
		sortIDs(e.Remove)
		sortIDs(e.Add)
		out = append(out, *e)
	}
	return out
}

func sortIDs(ids []kb.EntityID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
