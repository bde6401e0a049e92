package kb

import (
	"strings"

	"minoaner/internal/parallel"
	"minoaner/internal/rdf"
)

// Assembly over term-ID arrays. describe (passes 1 and 2) is shared by
// Builder.Build and the store; the rest of this file is the store's
// side, the hot path of epoch mutation. Store.Assemble reruns the
// generic passes over the mutated refs and derives the predicate
// statistics from the (predicate, object, subject)-sorted ref list in
// one map-free merge walk: predicate groups are contiguous, equal
// objects are adjacent (distinct-object counts become run-length
// counts), and distinct-subject counts use generation stamps instead of
// per-predicate sets. The result is exactly what Build produces over
// the same triples — entity for entity, stat for stat.
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
			if pid, ok := prev.uris()[key]; !ok || pid != id {
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
			kb.uriIndex = prev.uris()
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

// assemble builds the KB of the store's current triple set with the
// generic passes; the statistics come from the store's (predicate,
// object, subject) order. prev, when non-nil, lends describe its URI
// index (unchanged roster) and finishTokens its token bags (unchanged
// descriptions).
func (s *Store) assemble(prev *KB) *KB {
	sc := &s.scratch
	sc.begin(len(s.terms))
	kb := newAssembly(s.name, len(s.refs))
	rdfTypeTerm := s.typeTerm()
	describe(kb, s.terms, s.refs, sc, rdfTypeTerm, prev)
	s.walkStats(kb, rdfTypeTerm)
	setImportance(kb)
	finishTokens(kb, parallel.Workers(s.workers), prev)
	return kb
}

// walkStats derives every predicate's Distinct and Entities counts
// from the (p,o,s)-sorted refs in one pass. describe must have run in
// the current pass: its predicate scratch resolves a predicate term to
// its dictionary ID (-1: never interned — an rdf:type group with only
// IRI objects), its subject scratch a term to its entity.
func (s *Store) walkStats(kb *KB, rdfTypeTerm int32) {
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
		pid, _ := sc.pred(p)
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
