// Live maintenance of the one-sided blocking substrate. A mutated KB
// epoch edits only the keys whose members moved: the keys a changed
// entity gained or lost, the keys of inserted entities and those of
// deleted ones. Prepared.ApplyPatch copies the substrate's tables — the
// untouched runs of keys and members in bulk — and rewrites those keys,
// reproducing, key for key and member for member, what Prepare builds
// from scratch over the mutated KB. A mutation's two-sided collections
// are the joins of its patched substrates (JoinTokenBlocks,
// JoinNameBlocks), as every other run's are.
package blocking

import (
	"sort"

	"minoaner/internal/kb"
)

// KeyEdit rewrites one posting: members to drop and members to insert,
// both ascending and disjoint. Every edit of a BuildPreparedPatch marks
// a posting that changed: it gained or lost a member, or (an edit with
// both lists empty) lost a deleted entity through the remap.
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

// ApplyPatch returns the substrate with the patch applied. A side the
// patch neither edits nor remaps is the receiver's table itself; any
// other is a new table, with a remap every posting translated first.
// The receiver is unchanged and both remain safe for concurrent joins.
func (p *Prepared) ApplyPatch(pt PreparedPatch) *Prepared {
	out := &Prepared{n1: p.n1, nameK: p.nameK, tokens: p.tokens, names: p.names}
	if pt.Remap != nil {
		out.n1 = pt.NewSize
		out.tokens = p.tokens.remapped(pt.Remap)
		out.names = p.names.remapped(pt.Remap)
	}
	out.tokens = out.tokens.edited(pt.Tokens)
	out.names = out.names.edited(pt.Names)
	return out
}

// edited returns the table with the edits (keys ascending) applied:
// the runs of keys between two edited ones are copied in bulk, members
// and offsets alike, each edited posting is merged with its edit, and a
// posting that empties out drops its key. No edit, no copy.
func (ps *postings) edited(edits []KeyEdit) postings {
	if len(edits) == 0 {
		return *ps
	}
	grow := 0
	for _, e := range edits {
		grow += len(e.Add)
	}
	out := postings{
		keys:    make([]string, 0, len(ps.keys)+len(edits)),
		ends:    make([]int32, 0, len(ps.keys)+len(edits)),
		members: make([]kb.EntityID, 0, len(ps.members)+grow),
	}
	next := 0 // the first key of ps not yet in out
	copyUpTo := func(to int) {
		if to == next {
			return
		}
		from := ps.start(next)
		shift := int32(len(out.members)) - from
		out.keys = append(out.keys, ps.keys[next:to]...)
		for _, end := range ps.ends[next:to] {
			out.ends = append(out.ends, end+shift)
		}
		out.members = append(out.members, ps.members[from:ps.ends[to-1]]...)
		next = to
	}
	for _, e := range edits {
		at := seek(ps.keys, next, e.Key)
		copyUpTo(at)
		var old []kb.EntityID
		if at < len(ps.keys) && ps.keys[at] == e.Key {
			old = ps.posting(at)
			next = at + 1
		}
		before := len(out.members)
		if out.members = appendEdit(out.members, old, e); len(out.members) > before {
			out.keys = append(out.keys, e.Key)
			out.ends = append(out.ends, int32(len(out.members)))
		}
	}
	copyUpTo(len(ps.keys))
	if len(out.keys) == 0 {
		return postings{}
	}
	return out
}

// appendEdit appends one posting merged with its edit to dst,
// preserving ascending order and uniqueness.
func appendEdit(dst, old []kb.EntityID, e KeyEdit) []kb.EntityID {
	ri, ai := 0, 0
	for _, id := range old {
		for ai < len(e.Add) && e.Add[ai] < id {
			dst = append(dst, e.Add[ai])
			ai++
		}
		for ri < len(e.Remove) && e.Remove[ri] < id {
			ri++
		}
		if ri < len(e.Remove) && e.Remove[ri] == id {
			ri++
			continue
		}
		dst = append(dst, id)
	}
	return append(dst, e.Add[ai:]...)
}

// remapped translates every member through the remap, dropping deleted
// entities and postings that empty out. Survivors keep their relative
// order under a remap, so every posting still ascends.
func (ps *postings) remapped(remap []kb.EntityID) postings {
	out := postings{
		keys:    make([]string, 0, len(ps.keys)),
		ends:    make([]int32, 0, len(ps.keys)),
		members: make([]kb.EntityID, 0, len(ps.members)),
	}
	for i, key := range ps.keys {
		before := len(out.members)
		for _, id := range ps.posting(i) {
			if nid := remap[id]; nid >= 0 {
				out.members = append(out.members, nid)
			}
		}
		if len(out.members) > before {
			out.keys = append(out.keys, key)
			out.ends = append(out.ends, int32(len(out.members)))
		}
	}
	if len(out.keys) == 0 {
		return postings{}
	}
	return out
}

// RebuildNames returns the substrate with its name postings rebuilt
// from scratch for the given KB and name-K — the fallback when a
// mutation reorders the KB's most distinctive attributes, which
// invalidates every name key at once. Token postings are shared with
// the receiver.
func (p *Prepared) RebuildNames(kb1 *kb.KB, nameK, workers int) *Prepared {
	return &Prepared{n1: p.n1, nameK: nameK, tokens: p.tokens, names: namePostings(kb1, nameK, workers, nil)}
}

// BuildPreparedPatch derives the substrate patch of one KB mutation
// from the epoch diff: a changed entity removes the token and name keys
// it lost and adds the ones it gained (the keys it kept record
// nothing), inserted entities add theirs, and deleted entities are
// handled by the remap (their IDs translate to -1), their keys recorded
// as empty edits. So the edited keys are exactly the postings that
// differ from the receiver's. The name-attribute lists must rank the
// same predicates on both sides — when a mutation reorders a KB's most
// distinctive attributes, fall back to RebuildNames instead.
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
	// diff walks one entity's ascending, distinct old and new key lists,
	// nOld keys oldKey(i) and nNew keys newKey(j), together: keys only in
	// the old list lose the entity, keys only in the new list gain it.
	diff := func(m map[string]*KeyEdit, e kb.EntityID, nOld, nNew int, oldKey, newKey func(int) string) {
		i, j := 0, 0
		for i < nOld || j < nNew {
			switch {
			case j == nNew || i < nOld && oldKey(i) < newKey(j):
				ke := edit(m, oldKey(i))
				ke.Remove = append(ke.Remove, e)
				i++
			case i == nOld || newKey(j) < oldKey(i):
				ke := edit(m, newKey(j))
				ke.Add = append(ke.Add, e)
				j++
			default:
				i++
				j++
			}
		}
	}
	// Token bags are ID lists, each ascending in its own KB's vocabulary,
	// so their keys are read through the two vocabularies.
	oldVocab, newVocab := old.Vocabulary(), new.Vocabulary()
	diffTokens := func(e kb.EntityID, oldBag, newBag []int32) {
		diff(tokens, e, len(oldBag), len(newBag),
			func(i int) string { return oldVocab[oldBag[i]] }, func(j int) string { return newVocab[newBag[j]] })
	}
	diffNames := func(e kb.EntityID, oldKeys, newKeys []string) {
		diff(names, e, len(oldKeys), len(newKeys),
			func(i int) string { return oldKeys[i] }, func(j int) string { return newKeys[j] })
	}
	for _, e := range d.AttrsChanged {
		oldID := d.Back[e]
		diffTokens(e, old.TokenIDs(oldID), new.TokenIDs(e))
		diffNames(e, old.Names(oldID, oldNameAttrs), new.Names(e, newNameAttrs))
	}
	for _, e := range d.Inserted {
		diffTokens(e, nil, new.TokenIDs(e))
		diffNames(e, nil, new.Names(e, newNameAttrs))
	}
	// Deleted entities are dropped by the remap itself; their keys are
	// still recorded (as empty edits) so affected-set scoring sees those
	// blocks as changed.
	for _, oldID := range d.Deleted {
		for _, t := range old.TokenIDs(oldID) {
			edit(tokens, oldVocab[t])
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
