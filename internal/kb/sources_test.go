package kb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"minoaner/internal/rdf"
)

// NumTriples returns the number of retained (distinct) triples.
func (s *Sources) NumTriples() int { return len(s.refs) }

// NumTriples returns the current number of (distinct) triples.
func (s *Store) NumTriples() int { return len(s.refs) }

// NumTerms returns the size of the term table, including terms no
// longer referenced by any triple (reclaim them with Compact).
func (s *Store) NumTerms() int { return len(s.terms) }

// randomTriples generates a messy but valid triple set over a closed
// subject universe: literals (plain, lang-tagged, typed), entity links,
// dangling IRIs, rdf:type triples, blank nodes, duplicates.
func randomTriples(rng *rand.Rand, nSubjects, nTriples int) []rdf.Triple {
	words := []string{"alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma", "zeta", "Nine", "ten"}
	preds := []string{"http://v/name", "http://v/desc", "http://v/knows", "http://v/near", "http://v/alt"}
	subject := func(i int) rdf.Term {
		if i%7 == 3 {
			return rdf.NewBlank(fmt.Sprintf("b%d", i))
		}
		return rdf.NewIRI(fmt.Sprintf("http://e/s%d", i))
	}
	var out []rdf.Triple
	for len(out) < nTriples {
		s := subject(rng.Intn(nSubjects))
		p := rdf.NewIRI(preds[rng.Intn(len(preds))])
		var o rdf.Term
		switch rng.Intn(10) {
		case 0:
			o = subject(rng.Intn(nSubjects)) // link (maybe dangling after deletes)
		case 1:
			o = rdf.NewIRI("http://other/" + words[rng.Intn(len(words))])
		case 2:
			o = rdf.NewLangLiteral(words[rng.Intn(len(words))], "en")
		case 3:
			o = rdf.NewTypedLiteral(words[rng.Intn(len(words))], "http://www.w3.org/2001/XMLSchema#string")
		case 4:
			p = rdf.NewIRI(RDFType)
			o = rdf.NewIRI("http://t/T" + words[rng.Intn(3)])
		default:
			o = rdf.NewLiteral(words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))])
		}
		out = append(out, rdf.NewTriple(s, p, o))
		if rng.Intn(11) == 0 && len(out) > 1 {
			out = append(out, out[rng.Intn(len(out))]) // duplicate
		}
	}
	return out
}

// subjectKeyOfTriple mirrors the entity key a triple's subject yields.
func subjectKeyOfTriple(t rdf.Triple) string { return SubjectKey(t.Subject) }

// applyReference mutates a reference triple list the way Store.Apply
// specifies: drop all triples of the replaced/deleted subjects, append
// the delta's.
func applyReference(ts []rdf.Triple, delta []rdf.Triple, deletes []string) []rdf.Triple {
	drop := make(map[string]bool)
	for _, t := range delta {
		drop[subjectKeyOfTriple(t)] = true
	}
	for _, u := range deletes {
		drop[u] = true
	}
	var out []rdf.Triple
	for _, t := range ts {
		if !drop[subjectKeyOfTriple(t)] {
			out = append(out, t)
		}
	}
	return append(out, delta...)
}

// mustEqualKB compares two KBs structurally (everything except the
// retained sources, whose term tables legitimately differ) and
// byte-wise through the codec.
func mustEqualKB(t *testing.T, got, want *KB, label string) {
	t.Helper()
	g, w := got.WithoutSources(), want.WithoutSources()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: assembled KB diverges from reference build", label)
	}
	var gb, wb bytes.Buffer
	if err := g.WriteBinary(&gb); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBinary(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: binary encodings differ", label)
	}
}

// TestStoreMutationEquivalence is the kb-layer half of the rebuild
// equivalence invariant: after any randomized sequence of upserts and
// deletes, Store.Assemble is bit-identical to a from-scratch build of
// the mutated triple set.
func TestStoreMutationEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ref := randomTriples(rng, 25, 160)
			base, err := FromTriples("base", ref)
			if err != nil {
				t.Fatal(err)
			}
			if !base.HasSources() {
				t.Fatal("builder default lost source retention")
			}
			store, err := NewStore(base)
			if err != nil {
				t.Fatal(err)
			}
			store.SetWorkers(1 + int(seed)%4)

			cur := base
			for round := 0; round < 12; round++ {
				var delta []rdf.Triple
				var deletes []string
				switch rng.Intn(4) {
				case 0: // delete 1-2 existing entities
					for i := 0; i < 1+rng.Intn(2); i++ {
						id := EntityID(rng.Intn(cur.Len()))
						deletes = append(deletes, cur.URI(id))
					}
				case 1: // upsert brand-new subjects
					delta = randomTriples(rng, 4, 10)
					for i := range delta {
						delta[i].Subject = rdf.NewIRI(fmt.Sprintf("http://e/new%d_%d", round, rng.Intn(3)))
					}
				default: // replace existing subjects with fresh descriptions
					delta = randomTriples(rng, 25, 8+rng.Intn(10))
				}

				var deltaKB *KB
				if len(delta) > 0 {
					deltaKB, err = FromTriples("delta", delta)
					if err != nil {
						t.Fatal(err)
					}
				}
				changed, revert, err := store.Apply(deltaKB, deletes)
				if err != nil {
					t.Fatal(err)
				}
				if !changed {
					continue
				}

				// Exercise revert: undo, check the previous state
				// reassembles, then redo.
				revert()
				mustEqualKB(t, store.Assemble(cur), cur, "revert")
				if _, _, err := store.Apply(deltaKB, deletes); err != nil {
					t.Fatal(err)
				}

				ref = applyReference(ref, delta, deletes)
				want, err := FromTriples("base", ref)
				if err != nil {
					t.Fatal(err)
				}
				got := store.Assemble(cur)
				mustEqualKB(t, got, want, fmt.Sprintf("round %d", round))
				if got.NumTriples() != want.NumTriples() {
					t.Fatalf("round %d: triple counts differ", round)
				}
				cur = got
			}

			// Compact reclaims orphaned terms without changing the
			// assembled KB.
			before := store.NumTerms()
			store.Compact()
			if store.NumTerms() > before {
				t.Fatalf("compact grew the term table (%d -> %d)", before, store.NumTerms())
			}
			mustEqualKB(t, store.Assemble(cur), cur, "post-compact")
		})
	}
}

// TestStoreDeleteAbsentIsNoop: deleting unknown subjects changes
// nothing and reports changed=false.
func TestStoreDeleteAbsentIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base, err := FromTriples("base", randomTriples(rng, 10, 50))
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	changed, _, err := store.Apply(nil, []string{"http://nowhere/x"})
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("deleting an absent subject reported a change")
	}
}

// TestStoreCompactPendingApply pins which KB Compact re-seats on its
// compacted table: none while an Apply is pending (the next Assemble
// delivers the table), and the last assembled one otherwise, including
// after the pending Apply was reverted.
func TestStoreCompactPendingApply(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base, err := FromTriples("base", randomTriples(rng, 12, 80))
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	// seated checks that k is want on the store's compacted table.
	seated := func(k, want *KB, label string) {
		t.Helper()
		if k == nil {
			t.Fatalf("%s: Compact returned nil", label)
		}
		mustEqualKB(t, k, want, label)
		if !reflect.DeepEqual(k.SourceTriples(), want.SourceTriples()) {
			t.Fatalf("%s: source triples differ", label)
		}
		if len(k.src.terms) != store.NumTerms() {
			t.Fatalf("%s: KB sources hold %d terms, the compacted table %d", label, len(k.src.terms), store.NumTerms())
		}
	}

	changed, _, err := store.Apply(nil, []string{base.URI(0)})
	if err != nil || !changed {
		t.Fatalf("Apply: changed=%v err=%v", changed, err)
	}
	if k := store.Compact(); k != nil {
		t.Fatal("Apply then Compact: returned a KB while the Apply is pending")
	}

	assembled := store.Assemble(base)
	seated(store.Compact(), assembled, "Assemble then Compact")

	// Orphan terms again, so the next Compact has something to drop.
	if _, _, err := store.Apply(nil, []string{assembled.URI(0)}); err != nil {
		t.Fatal(err)
	}
	assembled = store.Assemble(assembled)
	orphaned := len(assembled.src.terms)
	delta, err := FromTriples("delta", []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://e/fresh"), rdf.NewIRI("http://v/name"), rdf.NewLiteral("fresh")),
	})
	if err != nil {
		t.Fatal(err)
	}
	changed, revert, err := store.Apply(delta, nil)
	if err != nil || !changed {
		t.Fatalf("Apply: changed=%v err=%v", changed, err)
	}
	revert()
	seated(store.Compact(), assembled, "Apply, Revert, then Compact")
	if store.NumTerms() >= orphaned {
		t.Fatalf("Compact kept the orphans: %d terms, %d before", store.NumTerms(), orphaned)
	}
}

// TestSourcesBinaryRoundTrip: the sources section survives the codec
// bit-for-bit, a loaded KB is mutable, and stripping sources omits the
// section.
func TestSourcesBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base, err := FromTriples("base", randomTriples(rng, 12, 80))
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := base.WriteBinary(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasSources() {
		t.Fatal("sources lost through the codec")
	}
	if !reflect.DeepEqual(back, base) {
		t.Fatal("KB diverges after reload")
	}
	var second bytes.Buffer
	if err := back.WriteBinary(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("not bit-identical after reload")
	}

	// A loaded KB backs a Store exactly like the original.
	store, err := NewStore(back)
	if err != nil {
		t.Fatal(err)
	}
	if store.NumTriples() != base.src.NumTriples() {
		t.Fatal("loaded store lost triples")
	}

	// Stripped KBs omit the section and refuse mutation.
	var lean bytes.Buffer
	if err := base.WithoutSources().WriteBinary(&lean); err != nil {
		t.Fatal(err)
	}
	if lean.Len() >= first.Len() {
		t.Fatal("stripping sources did not shrink the encoding")
	}
	leanBack, err := ReadBinary(lean.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if leanBack.HasSources() {
		t.Fatal("stripped KB grew sources through the codec")
	}
	if _, err := NewStore(leanBack); err == nil {
		t.Fatal("store over a source-less KB accepted")
	}
}

// TestComputeDiff sanity-checks remaps and change flags on a targeted
// mutation.
func TestComputeDiff(t *testing.T) {
	var ts []rdf.Triple
	add := func(s, p string, o rdf.Term) {
		ts = append(ts, rdf.NewTriple(rdf.NewIRI(s), rdf.NewIRI(p), o))
	}
	add("http://e/a", "http://v/name", rdf.NewLiteral("alpha"))
	add("http://e/b", "http://v/name", rdf.NewLiteral("beta"))
	add("http://e/b", "http://v/knows", rdf.NewIRI("http://e/c"))
	add("http://e/c", "http://v/name", rdf.NewLiteral("gamma"))
	old, err := FromTriples("kb", ts)
	if err != nil {
		t.Fatal(err)
	}

	store, err := NewStore(old)
	if err != nil {
		t.Fatal(err)
	}
	// Delete c: b's link degrades to a dangling value (edges and attrs
	// change), a is untouched but its ID may shift.
	if _, _, err := store.Apply(nil, []string{"http://e/c"}); err != nil {
		t.Fatal(err)
	}
	cur := store.Assemble(old)
	d := ComputeDiff(old, cur)
	if len(d.Deleted) != 1 || old.URI(d.Deleted[0]) != "http://e/c" {
		t.Fatalf("deleted = %v", d.Deleted)
	}
	bNew, ok := cur.Lookup("http://e/b")
	if !ok {
		t.Fatal("b vanished")
	}
	wantChanged := []EntityID{bNew}
	if !reflect.DeepEqual(d.AttrsChanged, wantChanged) || !reflect.DeepEqual(d.EdgesChanged, wantChanged) {
		t.Fatalf("changed sets = attrs %v edges %v, want %v", d.AttrsChanged, d.EdgesChanged, wantChanged)
	}
	aOld, _ := old.Lookup("http://e/a")
	aNew, _ := cur.Lookup("http://e/a")
	if d.Remap[aOld] != aNew || d.BackID(aNew) != aOld {
		t.Fatal("remap broken for untouched entity")
	}
	if !d.Shifted() {
		t.Fatal("deletion did not report an ID shift")
	}
	if !ComputeDiff(cur, cur).Identity {
		t.Fatal("self-diff not identity")
	}
}

// TestStoreMutationDegenerateCases pins two adversarial corners of the
// store's assembly against a from-scratch build: rdf:type whose
// dictionary position is set by its first NON-declaration triple (not
// its first appearance), and dangling objects whose keys collide with
// each other and with literal values (blank node x vs IRI "_:x").
func TestStoreMutationDegenerateCases(t *testing.T) {
	iri := rdf.NewIRI
	t.Run("rdftype-dictionary-position", func(t *testing.T) {
		ts := []rdf.Triple{
			rdf.NewTriple(iri("http://e/s1"), iri(RDFType), rdf.NewLiteral("lit1")),
			rdf.NewTriple(iri("http://e/s2"), iri("http://v/pA"), rdf.NewLiteral("v")),
			rdf.NewTriple(iri("http://e/s3"), iri(RDFType), rdf.NewLiteral("lit")),
			rdf.NewTriple(iri("http://e/s4"), iri(RDFType), iri("http://t/X")),
		}
		base, err := FromTriples("kb", ts)
		if err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(base)
		if err != nil {
			t.Fatal(err)
		}
		// Replace s1 with a pure declaration: rdf:type's first
		// interning triple moves after pA's, so the dictionary order
		// of a from-scratch build flips.
		delta, err := FromTriples("d", []rdf.Triple{
			rdf.NewTriple(iri("http://e/s1"), iri(RDFType), iri("http://t/C")),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.Apply(delta, nil); err != nil {
			t.Fatal(err)
		}
		want, err := FromTriples("kb", applyReference(ts, []rdf.Triple{
			rdf.NewTriple(iri("http://e/s1"), iri(RDFType), iri("http://t/C")),
		}, nil))
		if err != nil {
			t.Fatal(err)
		}
		mustEqualKB(t, store.Assemble(base), want, "rdftype dictionary position")
	})
	t.Run("dangling-key-collisions", func(t *testing.T) {
		p := iri("http://v/p")
		ts := []rdf.Triple{
			rdf.NewTriple(iri("http://e/s1"), p, rdf.NewBlank("x")),
			rdf.NewTriple(iri("http://e/s1"), iri("http://v/name"), rdf.NewLiteral("one")),
			rdf.NewTriple(iri("http://e/s2"), p, iri("_:x")),
			rdf.NewTriple(iri("http://e/s3"), p, rdf.NewLiteral("_:x")),
			rdf.NewTriple(iri("http://e/s3"), p, iri("http://d/dangling")),
			rdf.NewTriple(iri("http://e/s3"), p, rdf.NewLiteral("dangling")),
		}
		base, err := FromTriples("kb", ts)
		if err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(base)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := FromTriples("d", []rdf.Triple{
			rdf.NewTriple(iri("http://e/s2"), p, iri("_:x")),
			rdf.NewTriple(iri("http://e/s2"), p, rdf.NewLiteral("extra value")),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.Apply(delta, nil); err != nil {
			t.Fatal(err)
		}
		want, err := FromTriples("kb", applyReference(ts, []rdf.Triple{
			rdf.NewTriple(iri("http://e/s2"), p, iri("_:x")),
			rdf.NewTriple(iri("http://e/s2"), p, rdf.NewLiteral("extra value")),
		}, nil))
		if err != nil {
			t.Fatal(err)
		}
		mustEqualKB(t, store.Assemble(base), want, "dangling key collisions")
	})
}
