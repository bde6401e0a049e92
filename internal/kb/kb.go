// Package kb assembles raw RDF triples into the Knowledge Base substrate
// MinoanER matches against: per-entity descriptions (bags of tokens,
// attribute-value pairs, neighbor links) plus the dataset statistics the
// paper derives all matching evidence from — attribute/relation
// importance and token entity-frequencies.
//
// Terminology follows the paper:
//
//   - An entity is any URI (or blank node) that appears as the subject of
//     at least one triple.
//   - A predicate whose objects are literals (or URIs that do not denote
//     an entity of this KB) is an attribute.
//   - A predicate whose objects are entities of the same KB is a
//     relation; relations induce the entity graph used for neighbor
//     evidence.
//   - rdf:type triples are tracked separately (they define the "types"
//     column of Table I) and contribute neither attribute tokens nor
//     relations.
//
// Tokens live in one vocabulary per KB (Vocabulary): every token some
// entity's bag holds, once, ascending, and no other. A token's ID is
// its position there, so ID order is string order, and an entity's bag
// (TokenIDs) is the ascending, distinct IDs of the lowercase tokens of
// its attribute values. The vocabulary depends only on the bags, and a
// bag only on its entity's values: a KB assembled incrementally by a
// Store has the vocabulary and bags of a from-scratch Build of the same
// triples. Two KBs have unrelated vocabularies; compare their tokens as
// strings, or as IDs only when the two share one vocabulary slice.
package kb

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"minoaner/internal/parallel"
	"minoaner/internal/rdf"
)

// RDFType is the predicate IRI that declares an entity's type.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// EntityID indexes an entity within one KB.
type EntityID int32

// AttrValue is one attribute-value pair of a description.
type AttrValue struct {
	Pred  int32  // predicate ID within the KB's dictionary
	Value string // literal lexical form (or dangling-URI local name)
}

// Edge is one relation edge of the entity graph.
type Edge struct {
	Pred   int32    // relation ID within the KB's dictionary
	Target EntityID // the neighboring entity
}

// Entity is one fully assembled description.
type Entity struct {
	URI   string
	Attrs []AttrValue
	Out   []Edge   // edges where this entity is the subject
	In    []Edge   // edges where this entity is the object
	Types []string // rdf:type object IRIs
	// Tokens is the bag of the distinct lowercase tokens of all
	// attribute values, as ascending IDs into the KB's vocabulary.
	Tokens []int32
}

// KB is an immutable knowledge base. Build one with a Builder.
type KB struct {
	name     string
	entities []Entity
	uriIndex map[string]EntityID

	preds     []string         // predicate dictionary
	predIndex map[string]int32 // reverse dictionary

	attrStats map[int32]*PredStat // literal-valued predicates
	relStats  map[int32]*PredStat // entity-valued predicates

	// vocab is the token vocabulary: the distinct tokens of all bags,
	// ascending; Entity.Tokens holds positions in it.
	vocab []string

	numTriples  int
	totalTokens int // sum over entities of len(Tokens)
	typeSet     map[string]struct{}
	vocabSet    map[string]struct{}

	// src retains the interned source triples the KB was assembled
	// from (see Sources). Non-nil only for KBs built with source
	// retention; it is what makes a KB mutable through a Store.
	src *Sources

	// lazy is the undecoded remainder of an image opened with
	// OpenBinary. Nil for built KBs and for KBs that ReadBinary (or
	// Detach) decoded in full. On a mapped KB it stays set after
	// materialization — the sync.Once inside is what records that the
	// decode already happened, and concurrent readers check it.
	lazy *kbLazy
}

// PredStat aggregates the statistics the paper's importance metric needs
// for one predicate (attribute or relation).
type PredStat struct {
	Pred       int32
	Entities   int     // number of entities whose description contains the predicate (support count)
	Distinct   int     // number of distinct objects associated with the predicate
	Importance float64 // harmonic mean of support and discriminability
}

// Name returns the KB's display name.
func (kb *KB) Name() string { return kb.name }

// Len returns the number of entities.
func (kb *KB) Len() int { return len(kb.entities) }

// NumTriples returns the number of triples consumed by the builder
// (after deduplication).
func (kb *KB) NumTriples() int { return kb.numTriples }

// Entity returns the description with the given ID.
//
// Like every accessor below that reaches past the URI tier, it forces
// the full tier of a mapped KB on first use (a nil check otherwise);
// decode failures surface through the fallible entry points
// (Materialize, and the index's query/save/mutate paths), while the
// infallible accessors degrade to zero values.
func (kb *KB) Entity(id EntityID) *Entity {
	kb.materialize()
	return &kb.entities[id]
}

// Lookup resolves a URI to its entity ID.
func (kb *KB) Lookup(uri string) (EntityID, bool) {
	id, ok := kb.uris()[uri]
	return id, ok
}

// uris returns the URI index, which a KB opened from an image builds on
// first use (once, concurrency-safe); built KBs have it from the start.
func (kb *KB) uris() map[string]EntityID {
	if l := kb.lazy; l != nil {
		l.uriOnce.Do(func() {
			index := make(map[string]EntityID, len(kb.entities))
			for i := range kb.entities {
				index[kb.entities[i].URI] = EntityID(i)
			}
			kb.uriIndex = index
		})
	}
	return kb.uriIndex
}

// URI returns the URI of an entity.
func (kb *KB) URI(id EntityID) string { return kb.entities[id].URI }

// Pred returns the predicate name for a dictionary ID.
func (kb *KB) Pred(id int32) string {
	kb.materialize()
	return kb.preds[id]
}

// PredID resolves a predicate name to its dictionary ID.
//
//minoaner:keep paris's, blocking's and linda's tests look predicates up by name with it
func (kb *KB) PredID(name string) (int32, bool) {
	kb.materialize()
	id, ok := kb.predIndex[name]
	return id, ok
}

// AvgTokens returns the mean number of distinct tokens per entity
// (the "av. tokens" row of Table I).
func (kb *KB) AvgTokens() float64 {
	kb.materialize()
	if len(kb.entities) == 0 {
		return 0
	}
	return float64(kb.totalTokens) / float64(len(kb.entities))
}

// NumAttributes returns the number of distinct attribute predicates.
func (kb *KB) NumAttributes() int {
	kb.materialize()
	return len(kb.attrStats)
}

// NumRelations returns the number of distinct relation predicates.
func (kb *KB) NumRelations() int {
	kb.materialize()
	return len(kb.relStats)
}

// NumTypes returns the number of distinct rdf:type objects.
func (kb *KB) NumTypes() int {
	kb.materialize()
	return len(kb.typeSet)
}

// NumVocabularies returns the number of distinct predicate namespaces
// (the prefix up to the last '#' or '/').
func (kb *KB) NumVocabularies() int {
	kb.materialize()
	return len(kb.vocabSet)
}

// AttrStat returns the statistics of an attribute predicate, or nil.
func (kb *KB) AttrStat(pred int32) *PredStat {
	kb.materialize()
	return kb.attrStats[pred]
}

// AttrStats returns all attribute statistics sorted by descending
// importance, ties broken by predicate name for determinism.
func (kb *KB) AttrStats() []*PredStat { return kb.sortedStats(kb.attrStats) }

// RelStats returns all relation statistics sorted by descending
// importance, ties broken by predicate name.
func (kb *KB) RelStats() []*PredStat { return kb.sortedStats(kb.relStats) }

func (kb *KB) sortedStats(m map[int32]*PredStat) []*PredStat {
	kb.materialize()
	out := make([]*PredStat, 0, len(m))
	for _, st := range m {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Importance != out[j].Importance {
			return out[i].Importance > out[j].Importance
		}
		return kb.preds[out[i].Pred] < kb.preds[out[j].Pred]
	})
	return out
}

// Builder accumulates triples and produces an immutable KB.
//
// Storage is term-interned: every distinct rdf.Term is stored once and
// each recorded triple is three int32 references, which keeps large Web
// crawls (whose URIs and literals repeat heavily) far below the cost of
// holding full triples. Duplicates are removed by a sort+compact pass
// at Build time (consecutive duplicates are dropped eagerly on Add).
type Builder struct {
	name    string
	workers int

	termTable
	triples []tripleRef
	trans   []int32 // merge scratch: a block's local term IDs -> builder IDs
}

// tripleRef is one recorded triple as indices into the term table.
type tripleRef struct{ s, p, o int32 }

// NewBuilder returns a Builder for a KB with the given display name,
// tokenizing with tokenize.DefaultOptions. Built KBs always retain their
// interned source triples — the substrate of live mutation (see Store)
// and the sources section WriteBinary persists; KB.WithoutSources
// strips them from a built KB.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, termTable: termTable{hash: seededTermHash()}}
}

// SetWorkers bounds the goroutines AddFromReader parses on and Build
// uses for its parallel passes. Values <= 0 select GOMAXPROCS. The built
// KB is bit-identical at any setting.
//
//minoaner:keep the ingest and parallel-build tests pin that bit-identity at 1 to 8 workers
func (b *Builder) SetWorkers(n int) { b.workers = n }

// Add records one triple. Duplicates are ignored. Invalid triples are
// rejected.
func (b *Builder) Add(t rdf.Triple) error {
	if err := t.Validate(); err != nil {
		return err
	}
	b.record(tripleRef{s: b.intern(t.Subject), p: b.intern(t.Predicate), o: b.intern(t.Object)})
	return nil
}

// record appends one interned triple, dropping a repeat of the previous
// one (cheap eager dedup; Build removes the rest).
func (b *Builder) record(ref tripleRef) {
	if n := len(b.triples); n > 0 && b.triples[n-1] == ref {
		return
	}
	b.triples = append(b.triples, ref)
}

// AddAll records a batch of triples, stopping at the first invalid one.
func (b *Builder) AddAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := b.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// refLessIn orders triple references by (subject, predicate, object)
// under termLess. Distinct term IDs always denote distinct terms, so
// this is a strict order with equal triples exactly at equal refs.
func refLessIn(terms []rdf.Term, x, y tripleRef) bool {
	if x.s != y.s {
		return termLess(terms[x.s], terms[y.s])
	}
	if x.p != y.p {
		return termLess(terms[x.p], terms[y.p])
	}
	if x.o != y.o {
		return termLess(terms[x.o], terms[y.o])
	}
	return false
}

// Build assembles the KB. The builder may be reused afterwards.
func (b *Builder) Build() (*KB, error) {
	workers := parallel.Workers(b.workers)

	// Deterministic assembly independent of insertion order: sort all
	// recorded refs, then compact exact duplicates, which replaces the
	// full-triple dedup map.
	refs := b.sortedRefs(workers)
	j := 0
	for i := range refs {
		if i > 0 && refs[i] == refs[i-1] {
			continue
		}
		refs[j] = refs[i]
		j++
	}
	refs = refs[:j:j]

	kb := assembleKB(b.name, workers, b.terms, refs, b.typeTerm())
	// Clip the term table so later builder appends cannot write into the
	// retained slice's spare capacity. A reservation the document left
	// more than an eighth unfilled (see reserveFor) is not kept for the
	// KB's life: the KB and the builder move to an exact copy.
	terms := b.terms[:len(b.terms):len(b.terms)]
	if n := len(terms); cap(b.terms) > n+n/8 {
		terms = slices.Clone(terms)
		b.terms = terms
	}
	kb.src = &Sources{terms: terms, refs: refs}
	return kb, nil
}

// assembleKB runs the deterministic assembly passes over a sorted,
// deduplicated ref slice: passes 1 and 2 (describe) create the entities
// in sorted-subject order and fill their descriptions, countStats
// derives the predicate statistics, pass 3 (finishTokens) tokenizes
// values and counts entity frequencies. The result depends only on the
// (terms-resolved) refs — never on how they were accumulated — which is
// what makes a mutated store's assemblies (Store.Assemble)
// bit-identical to from-scratch builds.
func assembleKB(name string, workers int, terms []rdf.Term, refs []tripleRef, rdfTypeTerm int32) *KB {
	var sc assembleScratch
	sc.begin(len(terms))
	kb := newAssembly(name, len(refs))
	aliased := describe(kb, terms, refs, &sc, rdfTypeTerm, nil)
	countStats(kb, terms, refs, &sc, rdfTypeTerm, aliased)
	setImportance(kb)
	finishTokens(kb, workers, nil)
	return kb
}

// roleCount accumulates one predicate's statistics in one role
// (attribute or relation) over refs in (subject, predicate, object)
// order. K is the key distinct objects are counted under.
type roleCount[K comparable] struct {
	// refs bounds the predicate's refs in this role: the size objects
	// starts at, so that it never grows.
	refs    int
	objects map[K]struct{}
	// Support: refs arrive grouped by subject, so a new entity is a
	// change of subject — unless aliased subject terms make an entity
	// come round twice, when its IDs are collected instead.
	entities int
	last     EntityID
	revisits map[EntityID]struct{}
}

func (rc *roleCount[K]) add(subj EntityID, object K, aliased bool) {
	if rc.objects == nil {
		rc.objects = make(map[K]struct{}, rc.refs)
		rc.last = -1
		if aliased {
			rc.revisits = make(map[EntityID]struct{})
		}
	}
	rc.objects[object] = struct{}{}
	if aliased {
		rc.revisits[subj] = struct{}{}
	} else if subj != rc.last {
		rc.last = subj
		rc.entities++
	}
}

func (rc *roleCount[K]) stat(pred int32) *PredStat {
	entities := rc.entities
	if rc.revisits != nil {
		entities = len(rc.revisits)
	}
	return &PredStat{Pred: pred, Entities: entities, Distinct: len(rc.objects)}
}

// countStats derives every predicate's support and distinct-object
// counts from the descriptions' own ref order (Builder.Build has no
// (p,o,s)-sorted copy to walk; compare Store.walkStats). Attribute
// objects count under their value — a literal's lexical form, a
// dangling URI's entity key, one key space — and relation objects under
// the entity they denote. describe must have run over the same refs and
// scratch.
func countStats(kb *KB, terms []rdf.Term, refs []tripleRef, sc *assembleScratch, rdfTypeTerm int32, aliased bool) {
	attrs := make([]roleCount[string], len(kb.preds))
	rels := make([]roleCount[EntityID], len(kb.preds))
	for _, ref := range refs {
		if pid, ok := sc.pred(ref.p); ok && pid >= 0 {
			attrs[pid].refs++
			if terms[ref.o].Kind != rdf.Literal {
				rels[pid].refs++
			}
		}
	}
	for _, ref := range refs {
		obj := &terms[ref.o]
		if ref.p == rdfTypeTerm && obj.Kind == rdf.IRI {
			continue // type declarations carry no predicate statistics
		}
		pid, _ := sc.pred(ref.p)
		subj := sc.subj(ref.s)
		if obj.Kind == rdf.Literal {
			if obj.Value != "" {
				attrs[pid].add(subj, obj.Value, aliased)
			}
		} else if tgt := sc.subj(ref.o); tgt >= 0 {
			rels[pid].add(subj, tgt, aliased)
		} else if localName(obj.Value) != "" {
			attrs[pid].add(subj, SubjectKey(*obj), aliased)
		}
	}
	for pid := range kb.preds {
		if attrs[pid].objects != nil {
			kb.attrStats[int32(pid)] = attrs[pid].stat(int32(pid))
		}
		if rels[pid].objects != nil {
			kb.relStats[int32(pid)] = rels[pid].stat(int32(pid))
		}
	}
}

// sortedRefs returns the recorded refs in (subject, predicate, object)
// order under termLess. Terms are compared only where refs must be
// told apart by them: the distinct subject terms are ranked once, a
// counting sort places the refs into one run per subject in rank
// order, and each run — a description, a handful of refs — is sorted
// by predicate rank, then object.
func (b *Builder) sortedRefs(workers int) []tripleRef {
	rank := make([]int32, len(b.terms))
	nSubj := b.rankTerms(rank, workers, func(r tripleRef) int32 { return r.s })

	// starts[r+1] counts the refs of subject rank r; its prefix sums are
	// where each run starts.
	starts := make([]int32, nSubj+1)
	for _, r := range b.triples {
		starts[rank[r.s]+1]++
	}
	for r := 0; r < nSubj; r++ {
		starts[r+1] += starts[r]
	}
	refs := make([]tripleRef, len(b.triples))
	next := slices.Clone(starts[:nSubj])
	for _, r := range b.triples {
		k := rank[r.s]
		refs[next[k]] = r
		next[k]++
	}
	b.rankTerms(rank, workers, func(r tripleRef) int32 { return r.p })

	_ = parallel.For(context.Background(), nSubj, workers, func(_, lo, hi int) error {
		for k := lo; k < hi; k++ {
			slices.SortFunc(refs[starts[k]:starts[k+1]], func(x, y tripleRef) int {
				if x.p != y.p {
					return cmp.Compare(rank[x.p], rank[y.p])
				}
				if x.o == y.o {
					return 0
				}
				if termLess(b.terms[x.o], b.terms[y.o]) {
					return -1
				}
				return 1
			})
		}
		return nil
	})
	return refs
}

// rankTerms ranks the distinct terms that pick takes from the recorded
// refs: it sets rank[t] to term t's position among them under termLess
// and returns their count. Entries of other terms are unspecified.
func (b *Builder) rankTerms(rank []int32, workers int, pick func(tripleRef) int32) int {
	clear(rank)
	var distinct []int32
	for _, r := range b.triples {
		if t := pick(r); rank[t] == 0 {
			rank[t] = 1
			distinct = append(distinct, t)
		}
	}
	sortParallel(distinct, workers, func(x, y int32) bool { return termLess(b.terms[x], b.terms[y]) })
	for k, t := range distinct {
		rank[t] = int32(k)
	}
	return len(distinct)
}

// sortParallel sorts xs under less, which must order distinct values
// strictly, with a parallel chunk sort followed by bottom-up pairwise
// merges.
func sortParallel[T any](xs []T, workers int, less func(x, y T) bool) {
	n := len(xs)
	const minParallelSort = 1 << 12
	if workers <= 1 || n < minParallelSort {
		sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	width := (n + workers - 1) / workers
	_ = parallel.For(context.Background(), workers, workers, func(w, _, _ int) error {
		chunk := xs[min(w*width, n):min((w+1)*width, n)]
		sort.Slice(chunk, func(i, j int) bool { return less(chunk[i], chunk[j]) })
		return nil
	})
	src, dst := xs, make([]T, n)
	for ; width < n; width *= 2 {
		pairs := (n + 2*width - 1) / (2 * width)
		_ = parallel.For(context.Background(), pairs, workers, func(_, start, end int) error {
			for p := start; p < end; p++ {
				lo := p * 2 * width
				mid, hi := min(lo+width, n), min(lo+2*width, n)
				mergeSorted(dst[lo:hi], src[lo:mid], src[mid:hi], less)
			}
			return nil
		})
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// mergeSorted merges two sorted runs into out (len(out) == len(a)+len(c)).
func mergeSorted[T any](out, a, c []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(c) {
		if less(c[j], a[i]) {
			out[k] = c[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], c[j:])
}

func (kb *KB) statFor(m map[int32]*PredStat, pid int32) *PredStat {
	st := m[pid]
	if st == nil {
		st = &PredStat{Pred: pid}
		m[pid] = st
	}
	return st
}

func (kb *KB) internPred(name string) int32 {
	if id, ok := kb.predIndex[name]; ok {
		return id
	}
	id := int32(len(kb.preds))
	kb.preds = append(kb.preds, name)
	kb.predIndex[name] = id
	return id
}

// importance is the harmonic mean of support and discriminability
// (paper §III, H1): support = |entities with p| / |E|,
// discriminability = |distinct objects of p| / |entities with p|.
func importance(st *PredStat, numEntities float64) float64 {
	if st.Entities == 0 || numEntities == 0 {
		return 0
	}
	support := float64(st.Entities) / numEntities
	discr := float64(st.Distinct) / float64(st.Entities)
	if support+discr == 0 {
		return 0
	}
	return 2 * support * discr / (support + discr)
}

// SubjectKey returns the entity key a term produces when it appears in
// subject position: the IRI itself, or "_:"-prefixed for blank nodes.
// It is the key Lookup resolves, letting callers slice triple sets by
// entity without rebuilding a KB.
func SubjectKey(t rdf.Term) string {
	if t.IsBlank() {
		return "_:" + t.Value
	}
	return t.Value
}

func termLess(a, b rdf.Term) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	if a.Lang != b.Lang {
		return a.Lang < b.Lang
	}
	return a.Datatype < b.Datatype
}

// namespaceOf returns the predicate's vocabulary namespace: everything up
// to and including the last '#' or '/'.
func namespaceOf(iri string) string {
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 {
		return iri[:i+1]
	}
	return iri
}

// localName returns the fragment of an IRI after the last '#' or '/',
// used to salvage tokens from dangling URI objects. An IRI ending in
// its separator (e.g. "http://ex.org/") has no local name and yields
// "": returning the whole IRI there would flood token bags with URL
// fragments ("http", "ex", "org").
func localName(iri string) string {
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 {
		return iri[i+1:]
	}
	return iri
}

// FromTriples is a convenience constructor: builds a KB directly from a
// triple slice.
func FromTriples(name string, ts []rdf.Triple) (*KB, error) {
	b := NewBuilder(name)
	if err := b.AddAll(ts); err != nil {
		return nil, err
	}
	return b.Build()
}

// FromTriplesSubset builds a KB from the triples whose subject key
// (SubjectKey) is one of the given URIs — the standard way to slice a
// delta out of a larger triple set. It returns the KB and the number
// of triples selected.
func FromTriplesSubset(name string, ts []rdf.Triple, subjects []string) (*KB, int, error) {
	want := make(map[string]bool, len(subjects))
	for _, u := range subjects {
		want[u] = true
	}
	b := NewBuilder(name)
	selected := 0
	for _, t := range ts {
		if !want[SubjectKey(t.Subject)] {
			continue
		}
		if err := b.Add(t); err != nil {
			return nil, selected, err
		}
		selected++
	}
	built, err := b.Build()
	return built, selected, err
}

// String summarizes the KB for diagnostics.
func (kb *KB) String() string {
	return fmt.Sprintf("KB(%s: %d entities, %d triples, %d attrs, %d rels, %d types)",
		kb.name, kb.Len(), kb.numTriples, kb.NumAttributes(), kb.NumRelations(), kb.NumTypes())
}
