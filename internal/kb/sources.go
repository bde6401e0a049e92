// Source-triple retention and live mutation. A KB built with source
// retention (the Builder default) keeps its interned triples as a
// Sources value; a Store wraps those sources into a mutable triple set
// that supports entity-level upserts and deletes and re-assembles a KB
// after each change.
//
// The mutation contract is triple-level and matches a from-scratch
// rebuild exactly: upserting a delta KB replaces every triple whose
// subject is one of the delta's entities with the delta's triples for
// it; deleting a URI removes every triple with that subject. The
// assembled KB is bit-identical to Build over the mutated triple set —
// same entity order (sorted subject terms), same predicate dictionary,
// same object classification (links to removed entities degrade to
// dangling values, links to inserted ones upgrade to relation edges),
// same statistics — because Assemble literally runs the same
// description passes over the same sorted refs. Only tokenization is
// shortcut, through the value-equality reuse in finishTokens, which
// cannot change the result.
package kb

import (
	"errors"
	"fmt"
	"sort"

	"minoaner/internal/rdf"
)

// Sources is the interned source-triple set a KB was assembled from:
// a term table plus sorted, deduplicated triple refs into it. It is
// immutable once attached to a KB.
type Sources struct {
	terms []rdf.Term
	refs  []tripleRef
}

// SourceTriples returns the KB's retained source triples in interned
// order — sorted by (subject, predicate, object) term values and
// deduplicated. This is the canonical rendering order of a replayable
// mutation journal: serializing these triples and rebuilding a KB from
// them reproduces the same sources bit-for-bit. Nil when the KB
// retains no sources.
func (kb *KB) SourceTriples() []rdf.Triple {
	kb.materializeSrc()
	if kb.src == nil {
		return nil
	}
	out := make([]rdf.Triple, len(kb.src.refs))
	for i, r := range kb.src.refs {
		out[i] = rdf.Triple{
			Subject:   kb.src.terms[r.s],
			Predicate: kb.src.terms[r.p],
			Object:    kb.src.terms[r.o],
		}
	}
	return out
}

// HasSources reports whether the KB retains its source triples and can
// therefore back a Store. For a mapped KB it answers from the section
// directory without decoding the sources.
func (kb *KB) HasSources() bool {
	return kb.src != nil || (kb.lazy != nil && kb.lazy.hasSrc)
}

// WithoutSources returns a view of the KB with source retention
// stripped (the underlying data is shared). WriteBinary on the view
// omits the sources section — the pre-mutability encoding.
func (kb *KB) WithoutSources() *KB {
	kb.materialize()
	c := *kb
	c.src = nil
	// The view must not rediscover the sources (or anything else)
	// through the mapping; the full tier was just forced, so dropping
	// the lazy state leaves a complete KB.
	c.lazy = nil
	return &c
}

// Store is the mutable triple set behind a sequence of KB epochs. It
// owns a growing term table and the current sorted ref slice; Apply
// mutates the set at entity granularity and Assemble produces the KB
// of the current state. A Store is single-writer: callers serialize
// Apply/Assemble/Compact externally. KBs produced by Assemble share
// the term table read-only and remain valid forever.
type Store struct {
	name    string
	workers int

	termTable
	refs []tripleRef
	// refsPOS is the same triple set sorted by (predicate, object,
	// subject): the access path of the map-free statistics walk in
	// Assemble (predicate groups are contiguous, and within one, equal
	// objects are adjacent).
	refsPOS []tripleRef

	// lastAssembled is the last Assemble's result (or the KB the store
	// was opened on); dirty records an Apply since then. Compact reads
	// both to decide which KB, if any, to re-seat on its table.
	lastAssembled *KB
	dirty         bool

	// Reusable generation-stamped scratch (single-writer, so safe to
	// keep across assemblies).
	scratch assembleScratch
}

// posLess orders refs by (predicate, object, subject) under termLess.
func posLess(terms []rdf.Term, x, y tripleRef) bool {
	if x.p != y.p {
		return termLess(terms[x.p], terms[y.p])
	}
	if x.o != y.o {
		return termLess(terms[x.o], terms[y.o])
	}
	if x.s != y.s {
		return termLess(terms[x.s], terms[y.s])
	}
	return false
}

// ErrNoSources is returned when a KB without retained source triples
// is asked to back a mutation.
var ErrNoSources = errors.New("kb: KB was built without source retention and cannot be mutated")

// NewStore wraps a KB's retained sources into a mutable triple set.
func NewStore(k *KB) (*Store, error) {
	if err := k.Materialize(); err != nil {
		return nil, err
	}
	if err := k.MaterializeSources(); err != nil {
		return nil, err
	}
	if k.src == nil {
		return nil, ErrNoSources
	}
	s := &Store{
		name:      k.name,
		termTable: termTable{terms: k.src.terms[:len(k.src.terms):len(k.src.terms)], hash: seededTermHash()},
		refs:      k.src.refs[:len(k.src.refs):len(k.src.refs)],
	}
	s.index()
	s.refsPOS = make([]tripleRef, len(s.refs))
	copy(s.refsPOS, s.refs)
	sort.Slice(s.refsPOS, func(i, j int) bool { return posLess(s.terms, s.refsPOS[i], s.refsPOS[j]) })
	s.lastAssembled = k
	return s, nil
}

// SetWorkers bounds the goroutines Assemble uses for its parallel
// passes. Values <= 0 select GOMAXPROCS; the result is identical at
// any setting.
func (s *Store) SetWorkers(n int) { s.workers = n }

// Revert undoes one successful Apply, restoring the pre-Apply triple
// set and term table: terms the reverted Apply interned are removed
// again, so an aborted mutation leaves no trace in later assemblies
// (or the snapshots derived from them).
type Revert func()

// Apply mutates the triple set: every triple whose subject key is an
// entity of the delta KB or one of the delete URIs is removed, then
// the delta's triples are merged in. It reports whether anything
// changed (deleting absent subjects is a no-op) and returns a Revert
// restoring the previous state. The delta must retain its sources.
func (s *Store) Apply(delta *KB, deletes []string) (changed bool, revert Revert, err error) {
	drop := make(map[string]bool, len(deletes)+8)
	prevTerms := len(s.terms)
	var putRefs []tripleRef
	if delta != nil {
		if delta.src == nil {
			return false, nil, ErrNoSources
		}
		for i := range delta.entities {
			drop[delta.entities[i].URI] = true
		}
		// Intern new terms in sorted-ref traversal order, not the
		// delta's term-table (parse encounter) order: the resulting
		// store table then depends only on the triple *set*, so a
		// journal delta re-parsed from its canonical rendering interns
		// bit-identically to the original upsert. Terms no triple
		// references are skipped — they would only be orphans.
		trans := make([]int32, len(delta.src.terms))
		for i := range trans {
			trans[i] = -1
		}
		for _, r := range delta.src.refs {
			for _, ti := range [3]int32{r.s, r.p, r.o} {
				if trans[ti] < 0 {
					trans[ti] = s.intern(delta.src.terms[ti])
				}
			}
		}
		putRefs = make([]tripleRef, len(delta.src.refs))
		for i, r := range delta.src.refs {
			putRefs[i] = tripleRef{s: trans[r.s], p: trans[r.p], o: trans[r.o]}
		}
	}
	for _, u := range deletes {
		drop[u] = true
	}
	if len(drop) == 0 {
		return false, func() {}, nil
	}

	// Resolve the dropped subject keys to term IDs: a key denotes the
	// IRI with that value, or (for "_:"-prefixed keys) the blank node —
	// and, degenerately, an IRI whose value carries the "_:" prefix.
	dropTerm := make(map[int32]bool, len(drop))
	for key := range drop {
		if id := s.lookup(rdf.NewIRI(key)); id >= 0 {
			dropTerm[id] = true
		}
		if len(key) > 2 && key[:2] == "_:" {
			if id := s.lookup(rdf.NewBlank(key[2:])); id >= 0 {
				dropTerm[id] = true
			}
		}
	}

	// One merge pass per sort order: skip dropped subjects, interleave
	// the delta's refs (already sorted — term order is value order, so
	// the translation preserves it).
	merge := func(cur []tripleRef, put []tripleRef, less func(x, y tripleRef) bool) (out []tripleRef, dropped int) {
		out = make([]tripleRef, 0, len(cur)+len(put))
		pi := 0
		for _, r := range cur {
			if dropTerm[r.s] {
				dropped++
				continue
			}
			for pi < len(put) && less(put[pi], r) {
				out = append(out, put[pi])
				pi++
			}
			out = append(out, r)
		}
		out = append(out, put[pi:]...)
		return out[:len(out):len(out)], dropped
	}
	merged, dropped := merge(s.refs, putRefs, func(x, y tripleRef) bool { return refLessIn(s.terms, x, y) })
	if dropped == 0 && len(putRefs) == 0 {
		return false, func() {}, nil
	}
	if sameRefs(merged, s.refs) {
		// Re-upserting descriptions identical to the stored ones: the
		// triple set is unchanged, so the mutation is a no-op (the
		// interned delta terms were already present or stay as
		// harmless table entries).
		return false, func() {}, nil
	}
	putPOS := make([]tripleRef, len(putRefs))
	copy(putPOS, putRefs)
	sort.Slice(putPOS, func(i, j int) bool { return posLess(s.terms, putPOS[i], putPOS[j]) })
	mergedPOS, _ := merge(s.refsPOS, putPOS, func(x, y tripleRef) bool { return posLess(s.terms, x, y) })

	prevRefs, prevPOS := s.refs, s.refsPOS
	prevAssembled, prevDirty := s.lastAssembled, s.dirty
	s.refs, s.refsPOS = merged, mergedPOS
	s.dirty = true
	return true, func() {
		s.refs, s.refsPOS = prevRefs, prevPOS
		s.lastAssembled, s.dirty = prevAssembled, prevDirty
		// Un-intern the terms this Apply appended. No assembled KB can
		// reference them (assemblies share length-capped prefixes of the
		// table), so truncating restores the exact pre-Apply table.
		s.truncate(prevTerms)
	}, nil
}

// Assemble builds the KB of the current triple set. prev, when
// non-nil, must be an Assemble (or Build) result of an earlier state
// of the same store: an unchanged roster shares its URI index and
// unchanged descriptions reuse its token bags. The result is
// bit-identical to a from-scratch Build of the current triples either
// way.
func (s *Store) Assemble(prev *KB) *KB {
	k := s.assemble(prev)
	k.src = s.sources()
	s.lastAssembled, s.dirty = k, false
	return k
}

// Compact rebuilds the term table from the live triples, dropping
// terms that deletions have orphaned and renumbering the rest.
//
// KBs assembled earlier keep the table they were assembled over, so one
// saved after Compact would still carry the orphans — and whoever loads
// it would keep them, while this store continues without. Compact
// therefore returns the KB of the last Assemble seated on the compacted
// table: a shallow copy that differs in its Sources alone. Publish it in
// the original's stead. The result is nil when Apply has changed
// the set since the last Assemble; that Assemble will deliver the
// compacted table.
func (s *Store) Compact() *KB {
	compacted := termTable{hash: s.hash}
	compacted.reserve(len(s.terms))
	remap := make([]int32, len(s.terms))
	for i := range remap {
		remap[i] = -1
	}
	move := func(id int32) int32 {
		if remap[id] < 0 {
			remap[id] = compacted.intern(s.terms[id])
		}
		return remap[id]
	}
	refs := make([]tripleRef, len(s.refs))
	for i, r := range s.refs {
		refs[i] = tripleRef{s: move(r.s), p: move(r.p), o: move(r.o)}
	}
	// Term values are unchanged, so the (p,o,s) order survives the
	// renumbering; only the IDs rewrite.
	refsPOS := make([]tripleRef, len(s.refsPOS))
	for i, r := range s.refsPOS {
		refsPOS[i] = tripleRef{s: move(r.s), p: move(r.p), o: move(r.o)}
	}
	s.termTable, s.refs, s.refsPOS = compacted, refs, refsPOS
	if s.dirty {
		return nil
	}
	seated := *s.lastAssembled
	seated.src = s.sources()
	s.lastAssembled = &seated
	return &seated
}

// sources returns the current triple set as an immutable Sources: the
// term table is clipped, so the store's later appends stay out of it.
func (s *Store) sources() *Sources {
	return &Sources{terms: s.terms[:len(s.terms):len(s.terms)], refs: s.refs}
}

// sameRefs reports whether two sorted ref slices hold the same
// triples.
func sameRefs(a, b []tripleRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validateSources checks structural invariants of a decoded source
// set: term kinds in range, ref ids in range, refs strictly sorted.
func validateSources(src *Sources) error {
	n := int32(len(src.terms))
	for i, t := range src.terms {
		if t.Kind > rdf.BlankNode {
			return fmt.Errorf("term %d has invalid kind %d", i, t.Kind)
		}
	}
	for i, r := range src.refs {
		if r.s < 0 || r.s >= n || r.p < 0 || r.p >= n || r.o < 0 || r.o >= n {
			return fmt.Errorf("ref %d out of term range", i)
		}
		if i > 0 && !refLessIn(src.terms, src.refs[i-1], r) {
			return fmt.Errorf("refs not strictly sorted at %d", i)
		}
	}
	return nil
}
