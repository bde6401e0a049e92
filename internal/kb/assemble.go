package kb

import (
	"strings"

	"minoaner/internal/parallel"
	"minoaner/internal/rdf"
)

// Assembly over term-ID arrays. describe (passes 1 and 2) is shared by
// Builder.Build and the store; the rest of this file is the store's
// side, the hot path of epoch mutation. Both store assemblies produce
// exactly what Build produces over the same triples — entity for
// entity, stat for stat:
//
//   - assembleFast reruns the generic passes and derives the predicate
//     statistics from the (predicate, object, subject)-sorted ref list
//     in one map-free merge walk: predicate groups are contiguous,
//     equal objects are adjacent (distinct-object counts become
//     run-length counts), and distinct-subject counts use generation
//     stamps instead of per-predicate sets.
//
//   - assembleIncremental goes further when the mutation replaced
//     descriptions without touching the entity roster or the
//     predicate dictionary: every unchanged Entity is carried over by
//     struct copy (slices shared), only the mutated descriptions are
//     rebuilt, and the in-edge lists of their link targets are
//     spliced. It verifies its own preconditions (subject sequence,
//     dictionary order, rdf:type presence) with one O(T) array scan
//     and falls back to assembleFast when any fails.
//
// One subtlety in the statistics walk: literal values and dangling-URI
// keys share the distinct-key space of attribute values (a literal can
// spell out exactly the URI of a dangling object), and lang/datatype
// variants of one literal are distinct terms with one key. Variants
// are adjacent (terms sort by value before lang/datatype); the
// literal/dangling collision is handled by collecting the group's
// literal keys into a scratch set only when the predicate actually has
// dangling objects.

// assembleScratch is the generation-stamped working set of an
// assembly: arrays indexed by term ID whose entries are valid only when
// their generation matches the current pass (so nothing is ever
// cleared, and a store reuses one across assemblies).
type assembleScratch struct {
	subjGen, predGen []int32
	subjVal, predVal []int32
	attrGen, relGen  []int32

	pass  int32 // per-assembly generation (subj/pred arrays)
	stamp int32 // per-predicate-group generation (attr/rel stamps)
}

func (sc *assembleScratch) grow(n int) {
	if len(sc.subjGen) >= n {
		return
	}
	grown := make([]int32, n*6)
	copy(grown[0:], sc.subjGen)
	copy(grown[n:], sc.subjVal)
	copy(grown[2*n:], sc.predGen)
	copy(grown[3*n:], sc.predVal)
	copy(grown[4*n:], sc.attrGen)
	copy(grown[5*n:], sc.relGen)
	sc.subjGen, sc.subjVal = grown[0:n:n], grown[n:2*n:2*n]
	sc.predGen, sc.predVal = grown[2*n:3*n:3*n], grown[3*n:4*n:4*n]
	sc.attrGen, sc.relGen = grown[4*n:5*n:5*n], grown[5*n:6*n:6*n]
}

func (sc *assembleScratch) begin(nTerms int) {
	sc.grow(nTerms)
	sc.pass++
}

func (sc *assembleScratch) setSubj(t int32, id EntityID) {
	sc.subjGen[t] = sc.pass
	sc.subjVal[t] = int32(id)
}

func (sc *assembleScratch) subj(t int32) EntityID {
	if sc.subjGen[t] != sc.pass {
		return -1
	}
	return EntityID(sc.subjVal[t])
}

func (sc *assembleScratch) setPred(t, pid int32) {
	sc.predGen[t] = sc.pass
	sc.predVal[t] = pid
}

func (sc *assembleScratch) pred(t int32) (int32, bool) {
	if sc.predGen[t] != sc.pass {
		return -1, false
	}
	return sc.predVal[t], true
}

// newAssembly returns the empty shell the assembly passes fill; describe
// adds the entity roster and its URI index.
func newAssembly(name string, numTriples int) *KB {
	return &KB{
		name:       name,
		predIndex:  make(map[string]int32),
		ef:         make(map[string]int32),
		attrStats:  make(map[int32]*PredStat),
		relStats:   make(map[int32]*PredStat),
		typeSet:    make(map[string]struct{}),
		vocabSet:   make(map[string]struct{}),
		numTriples: numTriples,
	}
}

// describe runs assembly passes 1 and 2 over sorted, deduplicated refs:
// every subject becomes an entity, in sorted order, and every triple is
// classified into the description of its subject (type, attribute
// value, relation edge, or dangling-URI value). It is the one
// description-fill loop behind both Builder.Build and Store.Assemble,
// and it works on term-ID arrays: the subject→entity and predicate→ID
// mappings live in sc (begun for len(terms)), keys derive once per
// subject run, and vocabularies once per distinct predicate term.
//
// prev, when non-nil, is an earlier assembly of an overlapping ref set
// whose URI index is shared when the roster turns out unchanged.
//
// It reports whether two subject terms shared one entity key, which
// breaks the ascending entity order of subject runs that countStats
// otherwise relies on.
func describe(kb *KB, terms []rdf.Term, refs []tripleRef, sc *assembleScratch, rdfTypeTerm int32, prev *KB) (aliasedSubjects bool) {
	runs := 0
	for i := range refs {
		if i == 0 || refs[i].s != refs[i-1].s {
			runs++
		}
	}
	kb.entities = make([]Entity, 0, runs)
	if prev == nil {
		kb.uriIndex = make(map[string]EntityID, runs)
	}

	// Pass 1: entities in sorted-subject order, plus the term->entity
	// mapping that replaces every later uriIndex lookup, and the
	// per-entity triple count that pre-sizes the description.
	//
	// The common mutation leaves the subject sequence untouched; the
	// optimistic walk then shares prev's uriIndex map outright and
	// falls back to building a fresh one on the first divergence.
	tripleCount := make([]int32, 0, runs)
	sharePrevIndex := prev != nil
	ownIndex := func() {
		sharePrevIndex = false
		kb.uriIndex = make(map[string]EntityID, runs)
		for e := range kb.entities {
			kb.uriIndex[kb.entities[e].URI] = EntityID(e)
		}
	}
	for i := 0; i < len(refs); {
		t := refs[i].s
		j := i + 1
		for j < len(refs) && refs[j].s == t {
			j++
		}
		key := SubjectKey(terms[t])
		id := EntityID(len(kb.entities))
		if sharePrevIndex {
			if pid, ok := prev.uriIndex[key]; !ok || pid != id {
				ownIndex() // divergence, or an aliased subject term
			}
		}
		if !sharePrevIndex {
			if eid, ok := kb.uriIndex[key]; ok {
				// Distinct subject terms with one key (an IRI spelled
				// "_:x" next to the blank node x): both map to the
				// entity.
				sc.setSubj(t, eid)
				tripleCount[eid] += int32(j - i)
				aliasedSubjects = true
				i = j
				continue
			}
			kb.uriIndex[key] = id
		}
		kb.entities = append(kb.entities, Entity{URI: key})
		tripleCount = append(tripleCount, int32(j-i))
		sc.setSubj(t, id)
		i = j
	}
	if sharePrevIndex {
		if len(kb.entities) != prev.Len() {
			ownIndex()
		} else {
			kb.uriIndex = prev.uriIndex
		}
	}

	// addAttr appends with a first-use allocation sized by the entity's
	// triple count (an upper bound): no repeated growth, and attr-less
	// entities keep nil slices.
	addAttr := func(subj EntityID, av AttrValue) {
		e := &kb.entities[subj]
		if e.Attrs == nil {
			e.Attrs = make([]AttrValue, 0, tripleCount[subj])
		}
		e.Attrs = append(e.Attrs, av)
	}
	// targetOf resolves a non-literal object to the entity it denotes,
	// or -1. One array read, except for an object that is no subject
	// term itself yet spells an entity's key (blank node x against a
	// subject IRI "_:x", or the reverse).
	targetOf := func(o int32, obj *rdf.Term) EntityID {
		tgt := sc.subj(o)
		if tgt < 0 && (obj.Kind == rdf.BlankNode || strings.HasPrefix(obj.Value, "_:")) {
			if id, ok := kb.uriIndex[SubjectKey(*obj)]; ok {
				sc.setSubj(o, id)
				tgt = id
			}
		}
		return tgt
	}

	// Pass 2: fill descriptions. Predicate IDs intern once per term;
	// object classification is one array read.
	var seenPreds []int32
	for _, ref := range refs {
		if _, ok := sc.pred(ref.p); !ok {
			sc.setPred(ref.p, -1)
			seenPreds = append(seenPreds, ref.p)
		}
		subj := sc.subj(ref.s)
		obj := &terms[ref.o]
		if ref.p == rdfTypeTerm && obj.Kind == rdf.IRI {
			kb.entities[subj].Types = append(kb.entities[subj].Types, obj.Value)
			kb.typeSet[obj.Value] = struct{}{}
			continue
		}
		pid, _ := sc.pred(ref.p)
		if pid < 0 {
			pid = kb.internPred(terms[ref.p].Value)
			sc.setPred(ref.p, pid)
		}
		// Empty lexical forms (empty literals, or dangling IRIs with no
		// local name) carry no matching evidence; recording them would
		// only distort attribute statistics and token bags.
		if obj.Kind == rdf.Literal {
			if obj.Value != "" {
				addAttr(subj, AttrValue{Pred: pid, Value: obj.Value})
			}
		} else if tgt := targetOf(ref.o, obj); tgt >= 0 {
			// Relation edge within the entity graph.
			kb.entities[subj].Out = append(kb.entities[subj].Out, Edge{Pred: pid, Target: tgt})
			kb.entities[tgt].In = append(kb.entities[tgt].In, Edge{Pred: pid, Target: subj})
		} else if v := localName(obj.Value); v != "" {
			// Dangling URI: an attribute value carrying the local name
			// as its lexical form (the paper's bag-of-strings view keeps
			// such evidence).
			addAttr(subj, AttrValue{Pred: pid, Value: v})
		}
	}
	for _, t := range seenPreds {
		kb.vocabSet[namespaceOf(terms[t].Value)] = struct{}{}
	}
	return aliasedSubjects
}

// setImportance derives every predicate's importance from its counted
// statistics. A predicate used with both literal and entity objects
// keeps both roles; importance is computed independently per role.
func setImportance(kb *KB) {
	n := float64(len(kb.entities))
	for _, st := range kb.attrStats {
		st.Importance = importance(st, n)
	}
	for _, st := range kb.relStats {
		st.Importance = importance(st, n)
	}
}

// assembleFast builds the KB of the store's current triple set with
// the generic passes; the statistics come from the store's
// (predicate, object, subject) order.
func (s *Store) assembleFast(prev *KB) *KB {
	sc := &s.scratch
	sc.begin(len(s.terms))
	kb := newAssembly(s.name, len(s.refs))
	rdfTypeTerm := s.typeTerm()
	describe(kb, s.terms, s.refs, sc, rdfTypeTerm, prev)
	s.walkStats(kb, func(t int32) int32 {
		if pid, ok := sc.pred(t); ok {
			return pid
		}
		return -1
	}, rdfTypeTerm)
	setImportance(kb)
	finishTokens(kb, s.opts, parallel.Workers(s.workers), prev)
	return kb
}

// walkStats derives every predicate's Distinct and Entities counts
// from the (p,o,s)-sorted refs in one pass. pidOf resolves a predicate
// term to its dictionary ID (-1: never interned — an rdf:type group
// with only IRI objects). The subject→entity scratch of the current
// pass must be populated.
func (s *Store) walkStats(kb *KB, pidOf func(int32) int32, rdfTypeTerm int32) {
	terms, refs := s.terms, s.refsPOS
	sc := &s.scratch

	for lo := 0; lo < len(refs); {
		p := refs[lo].p
		hi := lo + 1
		for hi < len(refs) && refs[hi].p == p {
			hi++
		}
		group := refs[lo:hi]
		lo = hi
		pid := pidOf(p)
		if pid < 0 {
			continue
		}
		sc.stamp++
		gen := sc.stamp

		var attrSt, relSt *PredStat
		attrDistinct := func() {
			if attrSt == nil {
				attrSt = kb.statFor(kb.attrStats, pid)
			}
			attrSt.Distinct++
		}
		attrSubject := func(t int32) {
			if sc.attrGen[t] != gen {
				sc.attrGen[t] = gen
				if attrSt == nil {
					attrSt = kb.statFor(kb.attrStats, pid)
				}
				attrSt.Entities++
			}
		}

		// Literal keys first (they sort after IRIs, but dangling-key
		// dedup needs them): distinct lexical values, variants of one
		// value adjacent.
		litLo, litHi := len(group), len(group)
		hasDangling := false
		for i, r := range group {
			switch terms[r.o].Kind {
			case rdf.Literal:
				if litLo == len(group) {
					litLo = i
				}
				litHi = i + 1
			default:
				if sc.subj(r.o) < 0 && !(r.p == rdfTypeTerm && terms[r.o].Kind == rdf.IRI) {
					hasDangling = true
				}
			}
		}
		// seenKeys holds every attribute key counted so far in this
		// group — literal values and dangling keys share one key space
		// (a blank node _:x and an IRI spelled "_:x" collide too), so
		// dangling runs must dedup against both.
		var seenKeys map[string]struct{}
		if hasDangling {
			seenKeys = make(map[string]struct{})
		}
		prevVal := ""
		haveVal := false
		for _, r := range group[litLo:litHi] {
			v := terms[r.o].Value
			if v == "" {
				continue // empty literals carry no evidence
			}
			if !haveVal || v != prevVal {
				haveVal = true
				prevVal = v
				attrDistinct()
				if seenKeys != nil {
					seenKeys[v] = struct{}{}
				}
			}
			attrSubject(r.s)
		}

		// Entity and dangling objects: one run per object term.
		runStats := func(run []tripleRef) {
			o := run[0].o
			t := &terms[o]
			if t.Kind == rdf.Literal {
				return
			}
			if p == rdfTypeTerm && t.Kind == rdf.IRI {
				return // type declarations carry no predicate statistics
			}
			if sc.subj(o) >= 0 {
				if relSt == nil {
					relSt = kb.statFor(kb.relStats, pid)
				}
				relSt.Distinct++
				for _, r := range run {
					if sc.relGen[r.s] != gen {
						sc.relGen[r.s] = gen
						relSt.Entities++
					}
				}
				return
			}
			// Dangling: the distinct key is the subject key the object
			// would have; it may collide with a literal value.
			if localName(t.Value) == "" {
				return // no local name, no evidence
			}
			key := SubjectKey(*t)
			if _, dup := seenKeys[key]; !dup {
				attrDistinct()
				seenKeys[key] = struct{}{}
			}
			for _, r := range run {
				attrSubject(r.s)
			}
		}
		for i := 0; i < len(group); {
			j := i + 1
			for j < len(group) && group[j].o == group[i].o {
				j++
			}
			runStats(group[i:j])
			i = j
		}
	}
}

// assembleIncremental splices the previous KB when the mutation only
// replaced existing descriptions: the entity roster, the predicate
// dictionary (content and order), and the rdf:type/vocabulary presence
// must all be unchanged, which one O(T) verification scan confirms.
// Returns nil when any precondition fails (callers fall back to
// assembleFast).
func (s *Store) assembleIncremental(prev *KB) *KB {
	if prev == nil || prev != s.lastAssembled || s.predsChanged {
		return nil
	}
	terms, refs := s.terms, s.refs
	sc := &s.scratch
	sc.begin(len(terms))

	// Changed descriptions: every touched key must still name an
	// existing entity (an insert or delete changes the roster and ID
	// assignment — generic path).
	changed := make([]EntityID, 0, len(s.touched))
	for key := range s.touched {
		id, ok := prev.uriIndex[key]
		if !ok {
			return nil
		}
		changed = append(changed, id)
	}
	sortIDs(changed)

	rdfTypeTerm := s.typeTerm()

	// Verification scan: subject runs must match prev's entity count
	// one-for-one (the roster check above makes a same-count
	// permutation impossible), the predicate first-appearance sequence
	// must equal prev's dictionary, and rdf:type-as-declaration
	// presence must be stable (it feeds the shared vocabulary set).
	// The scan also populates the subject scratch and records the
	// changed entities' ref ranges.
	nextEnt := 0
	var seenPreds []int32
	sawTypeDecl := false
	type span struct{ lo, hi int }
	spans := make(map[EntityID]span, len(changed))
	for i := 0; i < len(refs); {
		t := refs[i].s
		j := i + 1
		for j < len(refs) && refs[j].s == t {
			j++
		}
		if nextEnt >= prev.Len() {
			return nil
		}
		id := EntityID(nextEnt)
		sc.setSubj(t, id)
		nextEnt++
		if s.touched[prev.entities[id].URI] {
			spans[id] = span{lo: i, hi: j}
		}
		for k := i; k < j; k++ {
			p := refs[k].p
			if p == rdfTypeTerm && terms[refs[k].o].Kind == rdf.IRI {
				// A declaration never reaches internPred: it must not
				// establish rdf:type's dictionary position.
				sawTypeDecl = true
				continue
			}
			if _, ok := sc.pred(p); !ok {
				sc.setPred(p, -2)
				seenPreds = append(seenPreds, p)
			}
		}
		i = j
	}
	if nextEnt != prev.Len() {
		return nil
	}
	if sawTypeDecl != (len(prev.typeSet) > 0) {
		return nil
	}
	// Dictionary check: the interned predicates, in the order their
	// first interning triple appears (declarations were excluded
	// above, so rdf:type — when present — sits at its true position).
	// Any mismatch in content, order, or length means the dictionary
	// of a from-scratch build would differ: generic path.
	if len(seenPreds) != len(prev.preds) {
		return nil
	}
	for dict, p := range seenPreds {
		if prev.preds[dict] != terms[p].Value {
			return nil
		}
		sc.setPred(p, int32(dict))
	}

	kb := &KB{
		name:       s.name,
		uriIndex:   prev.uriIndex,
		preds:      prev.preds,
		predIndex:  prev.predIndex,
		ef:         make(map[string]int32, len(prev.ef)),
		attrStats:  make(map[int32]*PredStat),
		relStats:   make(map[int32]*PredStat),
		typeSet:    make(map[string]struct{}, len(prev.typeSet)),
		vocabSet:   prev.vocabSet,
		numTriples: len(refs),
	}
	kb.entities = make([]Entity, prev.Len())
	copy(kb.entities, prev.entities)

	// Rebuild the changed descriptions from their ref ranges.
	changedSet := make(map[EntityID]bool, len(changed))
	for _, e := range changed {
		changedSet[e] = true
	}
	for _, e := range changed {
		sp := spans[e]
		ent := Entity{URI: prev.entities[e].URI, In: prev.entities[e].In}
		for k := sp.lo; k < sp.hi; k++ {
			ref := refs[k]
			obj := &terms[ref.o]
			if ref.p == rdfTypeTerm && obj.Kind == rdf.IRI {
				ent.Types = append(ent.Types, obj.Value)
				continue
			}
			pid, _ := sc.pred(ref.p)
			switch {
			case obj.Kind == rdf.Literal:
				if obj.Value != "" {
					ent.Attrs = append(ent.Attrs, AttrValue{Pred: pid, Value: obj.Value})
				}
			case sc.subj(ref.o) >= 0:
				ent.Out = append(ent.Out, Edge{Pred: pid, Target: sc.subj(ref.o)})
			default:
				if v := localName(obj.Value); v != "" {
					ent.Attrs = append(ent.Attrs, AttrValue{Pred: pid, Value: v})
				}
			}
		}
		kb.entities[e] = ent
	}

	// Splice the in-edge lists of every link target the changed
	// entities touch (old or new edges).
	targets := make(map[EntityID]bool)
	for _, e := range changed {
		for _, edge := range prev.entities[e].Out {
			targets[edge.Target] = true
		}
		for _, edge := range kb.entities[e].Out {
			targets[edge.Target] = true
		}
	}
	for t := range targets {
		kb.entities[t].In = spliceIn(prev.entities[t].In, t, changed, changedSet, kb.entities)
	}

	// rdf:type and statistics.
	for i := range kb.entities {
		for _, typ := range kb.entities[i].Types {
			kb.typeSet[typ] = struct{}{}
		}
	}
	s.walkStats(kb, func(t int32) int32 {
		if pid, ok := sc.pred(t); ok && pid >= 0 {
			return pid
		}
		return -1
	}, rdfTypeTerm)
	setImportance(kb)

	// Tokens and EF: only the changed descriptions re-tokenize.
	for tok, c := range prev.ef {
		kb.ef[tok] = c
	}
	kb.totalTokens = prev.totalTokens
	var scratch []string
	for _, e := range changed {
		old := prev.entities[e].Tokens
		kb.totalTokens -= len(old)
		for _, tok := range old {
			if kb.ef[tok]--; kb.ef[tok] == 0 {
				delete(kb.ef, tok)
			}
		}
		ent := &kb.entities[e]
		scratch = tokenizeEntity(ent, s.opts, scratch)
		kb.totalTokens += len(ent.Tokens)
		for _, tok := range ent.Tokens {
			kb.ef[tok]++
		}
	}
	return kb
}

// spliceIn rebuilds one entity's in-edge list: entries from changed
// sources are replaced by the sources' rebuilt out-edges, in the
// global order the generic pass produces (ascending source, each
// source's edges in its ref order).
func spliceIn(in []Edge, target EntityID, changed []EntityID, changedSet map[EntityID]bool, entities []Entity) []Edge {
	out := make([]Edge, 0, len(in)+2)
	emit := func(src EntityID) {
		for _, edge := range entities[src].Out {
			if edge.Target == target {
				out = append(out, Edge{Pred: edge.Pred, Target: src})
			}
		}
	}
	ci := 0
	for _, edge := range in {
		src := edge.Target // an in-edge's Target field holds the source
		for ci < len(changed) && changed[ci] < src {
			emit(changed[ci])
			ci++
		}
		if ci < len(changed) && changed[ci] == src {
			continue // dropped here, re-emitted at this position by the loop above or below
		}
		if changedSet[src] {
			continue // later changed source: its old entries drop, new ones emit in order
		}
		out = append(out, edge)
	}
	for ; ci < len(changed); ci++ {
		emit(changed[ci])
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func sortIDs(ids []EntityID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
