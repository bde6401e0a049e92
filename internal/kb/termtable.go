package kb

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"minoaner/internal/rdf"
)

// termTable interns rdf.Terms: terms holds every distinct term once, in
// first-appearance order, and a term's ID is its index there. slots is
// the hash index over terms — open addressing, linear probing — and it
// holds neither pointers nor strings: the collector never scans it, a
// slot remembers its term's hash, growth re-inserts the slots by those
// hashes, and a probe compares strings only behind an equal hash. It is
// the one table under the block parser, the Builder and the Store.
//
// Hashes are seeded and never observable: an ID is an arrival position,
// and nothing a caller can see depends on where a slot landed.
type termTable struct {
	terms []rdf.Term
	// slots has a power-of-two length and is at most half full; it is nil
	// until the first term arrives. Every occupied slot refers to a
	// distinct term of terms.
	slots []termSlot
	// hash is the table's hash function, seededTermHash outside tests.
	// internHashed accepts its values only, from this table or from one
	// that shares the function.
	hash func(rdf.Term) uint64
}

type termSlot struct {
	hash uint64
	ref  int32 // term ID + 1; 0 marks an empty slot
}

// minTermSlots is the slot count of the first allocation: eight terms,
// a one-entity delta's worth, for 256 bytes.
const minTermSlots = 16

// seededTermHash returns a term hash under a seed of its own, the
// runtime's string hash beneath it. Like the built-in map's, the seed
// differs from call to call, so a request body cannot be crafted to
// pile its terms onto one probe run.
func seededTermHash() func(rdf.Term) uint64 {
	seed := maphash.MakeSeed()
	return func(t rdf.Term) uint64 {
		h := maphash.String(seed, t.Value)
		if t.Lang != "" {
			h = bits.RotateLeft64(h, 21) ^ maphash.String(seed, t.Lang)
		}
		if t.Datatype != "" {
			h = bits.RotateLeft64(h, 43) ^ maphash.String(seed, t.Datatype)
		}
		// An IRI and a literal spelling it are different terms.
		return h ^ uint64(t.Kind)*0x9e3779b97f4a7c15
	}
}

// slotOf returns the slot that holds t, or the empty slot t belongs in.
// The table must have slots.
func (tt *termTable) slotOf(h uint64, t rdf.Term) *termSlot {
	mask := uint64(len(tt.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &tt.slots[i]
		if s.ref == 0 || s.hash == h && tt.terms[s.ref-1] == t {
			return s
		}
	}
}

// intern returns the ID of t, appending it to terms when it is new.
func (tt *termTable) intern(t rdf.Term) int32 { return tt.internHashed(tt.hash(t), t) }

// internHashed is intern for a caller that already holds h = hash(t).
func (tt *termTable) internHashed(h uint64, t rdf.Term) int32 {
	if n := len(tt.terms) + 1; 2*n > len(tt.slots) {
		tt.resize(n)
	}
	s := tt.slotOf(h, t)
	if s.ref == 0 {
		tt.terms = append(tt.terms, t)
		*s = termSlot{hash: h, ref: int32(len(tt.terms))}
	}
	return s.ref - 1
}

// lookup returns the ID of t, or -1 when the table does not hold it.
func (tt *termTable) lookup(t rdf.Term) int32 {
	if len(tt.slots) == 0 {
		return -1
	}
	return tt.slotOf(tt.hash(t), t).ref - 1
}

// typeTerm returns the ID of the rdf:type predicate term, or -1 when no
// triple has used it.
func (tt *termTable) typeTerm() int32 { return tt.lookup(rdf.NewIRI(RDFType)) }

// reserve makes room for n terms in all, so that interning up to there
// neither regrows terms nor rehashes.
func (tt *termTable) reserve(n int) {
	tt.terms = slices.Grow(tt.terms, max(n-len(tt.terms), 0))
	if 2*n > len(tt.slots) {
		tt.resize(n)
	}
}

// resize moves the slots into an array with room for n terms at half
// load. Only the stored hashes are consulted.
func (tt *termTable) resize(n int) {
	size := minTermSlots
	for size < 2*n {
		size *= 2
	}
	old := tt.slots
	tt.slots = make([]termSlot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.hash & mask
		for tt.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		tt.slots[i] = s
	}
}

// index enters the terms a new table was given — the term slice of a
// KB's Sources — into its slots. Of equal terms, which only a damaged
// image can hold, the first keeps the name.
func (tt *termTable) index() {
	tt.resize(len(tt.terms))
	for i, t := range tt.terms {
		h := tt.hash(t)
		if s := tt.slotOf(h, t); s.ref == 0 {
			*s = termSlot{hash: h, ref: int32(i) + 1}
		}
	}
}

// truncate forgets the terms with IDs n and up, the most recently
// interned ones.
func (tt *termTable) truncate(n int) {
	for id := len(tt.terms) - 1; id >= n; id-- {
		tt.unslot(int32(id))
	}
	tt.terms = tt.terms[:n]
}

// unslot empties the slot of term id and closes the gap: every slot of
// the probe run behind it moves up unless that would put it before its
// home position, so no term becomes unreachable and no tombstone stays.
func (tt *termTable) unslot(id int32) {
	mask := uint64(len(tt.slots) - 1)
	i := tt.hash(tt.terms[id]) & mask
	for tt.slots[i].ref != id+1 {
		if tt.slots[i].ref == 0 {
			return // an equal term of a damaged image, never entered
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; tt.slots[j].ref != 0; j = (j + 1) & mask {
		// Slot j may fill the gap at i when its home lies at or before
		// i on the way to j.
		if home := tt.slots[j].hash & mask; (j-home)&mask >= (j-i)&mask {
			tt.slots[i] = tt.slots[j]
			i = j
		}
	}
	tt.slots[i] = termSlot{}
}

// drain hands out the table's terms with their hashes, in ID order, and
// leaves the table empty; the slot array stays for the next fill.
func (tt *termTable) drain() (terms []rdf.Term, hashes []uint64) {
	terms, tt.terms = tt.terms, nil
	hashes = make([]uint64, len(terms))
	for i := range tt.slots {
		if s := &tt.slots[i]; s.ref != 0 {
			hashes[s.ref-1] = s.hash
			*s = termSlot{}
		}
	}
	return terms, hashes
}
