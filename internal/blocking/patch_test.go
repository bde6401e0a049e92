package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// Depth returns the overlay depth (0 for a flat substrate).
func (p *Prepared) Depth() int { return p.depth }

// mutableKB builds a KB with links, names, and a wide token overlap so
// mutations exercise every patch path (blocks appearing, vanishing,
// shrinking, growing).
func mutableTriples(rng *rand.Rand, prefix string, nSubjects, nTriples int) []rdf.Triple {
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%02d", i)
	}
	var out []rdf.Triple
	for len(out) < nTriples {
		s := rdf.NewIRI(fmt.Sprintf("http://%s/e%03d", prefix, rng.Intn(nSubjects)))
		switch rng.Intn(6) {
		case 0:
			out = append(out, rdf.NewTriple(s, rdf.NewIRI("http://v/knows"),
				rdf.NewIRI(fmt.Sprintf("http://%s/e%03d", prefix, rng.Intn(nSubjects)))))
		case 1:
			out = append(out, rdf.NewTriple(s, rdf.NewIRI("http://v/name"),
				rdf.NewLiteral(vocab[rng.Intn(len(vocab))]+" "+vocab[rng.Intn(len(vocab))])))
		default:
			out = append(out, rdf.NewTriple(s, rdf.NewIRI("http://v/desc"),
				rdf.NewLiteral(vocab[rng.Intn(len(vocab))])))
		}
	}
	return out
}

// samePreparedFlat compares two substrates by their flat views.
func samePreparedFlat(a, b *Prepared) bool {
	return reflect.DeepEqual(a.Flatten(), b.Flatten())
}

// sameRankedAttrs reports whether two KBs rank the same top name
// attributes (by predicate name) — the precondition of a name patch.
func sameRankedAttrs(a, b *kb.KB, k int) bool {
	aa, bb := a.TopNameAttributes(k), b.TopNameAttributes(k)
	if len(aa) != len(bb) {
		return false
	}
	for i := range aa {
		if a.Pred(aa[i]) != b.Pred(bb[i]) {
			return false
		}
	}
	return true
}

// TestPreparedPatchMatchesFresh: after randomized upsert/delete
// rounds, the patched substrate equals Prepare over the mutated KB,
// and patched pair collections equal the from-scratch constructions.
func TestPreparedPatchMatchesFresh(t *testing.T) {
	const nameK = 2
	for _, seed := range []int64{3, 11, 29} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			side1, err := kb.FromTriples("s1", mutableTriples(rng, "s1", 30, 150))
			if err != nil {
				t.Fatal(err)
			}
			// The un-mutated opposite side of the pair.
			side2, err := kb.FromTriples("s2", mutableTriples(rng, "s2", 25, 120))
			if err != nil {
				t.Fatal(err)
			}
			store, err := kb.NewStore(side1)
			if err != nil {
				t.Fatal(err)
			}

			prep1 := Prepare(side1, nameK, 2)
			prep2 := Prepare(side2, nameK, 2)
			tokenColl := JoinTokenBlocks(prep1, prep2)
			nameColl := JoinNameBlocks(prep1, prep2)
			if want := TokenBlocksN(side1, side2, 1); !reflect.DeepEqual(tokenColl, want) {
				t.Fatal("joined token blocks diverge from TokenBlocksN")
			}
			if want := NameBlocksN(side1, side2, nameK, 1); !reflect.DeepEqual(nameColl, want) {
				t.Fatal("joined name blocks diverge from NameBlocksN")
			}

			cur := side1
			for round := 0; round < 10; round++ {
				var deltaKB *kb.KB
				var deletes []string
				if rng.Intn(3) == 0 && cur.Len() > 2 {
					deletes = []string{cur.URI(kb.EntityID(rng.Intn(cur.Len())))}
				} else {
					ts := mutableTriples(rng, "s1", 34, 6+rng.Intn(8)) // ids 30..33 are brand new subjects
					deltaKB, err = kb.FromTriples("delta", ts)
					if err != nil {
						t.Fatal(err)
					}
				}
				changed, _, err := store.Apply(deltaKB, deletes)
				if err != nil {
					t.Fatal(err)
				}
				if !changed {
					continue
				}
				next := store.Assemble(cur)
				d := kb.ComputeDiff(cur, next)
				if !sameRankedAttrs(cur, next, nameK) {
					// Rare with this generator; the fallback re-derives
					// substrate and collections wholesale (the name
					// rebuild itself is covered by TestRebuildNames).
					prep1 = Prepare(next, nameK, 1)
					tokenColl = JoinTokenBlocks(prep1, prep2)
					nameColl = JoinNameBlocks(prep1, prep2)
				} else {
					pt := BuildPreparedPatch(cur, next, d, cur.TopNameAttributes(nameK), next.TopNameAttributes(nameK))
					prep1 = prep1.ApplyPatch(pt)

					// The pair collections patch with the same key set.
					var remap1 []kb.EntityID
					if d.Shifted() {
						remap1 = d.Remap
					}
					tokenKeys := make([]string, 0, len(pt.Tokens))
					for _, e := range pt.Tokens {
						tokenKeys = append(tokenKeys, e.Key)
					}
					nameKeys := make([]string, 0, len(pt.Names))
					for _, e := range pt.Names {
						nameKeys = append(nameKeys, e.Key)
					}
					tokenColl = tokenColl.Patch(CollectionPatch{
						Keys:    tokenKeys,
						Lookup1: prep1.lookupToken,
						Lookup2: prep2.lookupToken,
						Remap1:  remap1,
						N1:      next.Len(),
						N2:      side2.Len(),
					})
					nameColl = nameColl.Patch(CollectionPatch{
						Keys:    nameKeys,
						Lookup1: prep1.lookupName,
						Lookup2: prep2.lookupName,
						Remap1:  remap1,
						N1:      next.Len(),
						N2:      side2.Len(),
					})
					if want := TokenBlocksN(next, side2, 1); !reflect.DeepEqual(tokenColl, want) {
						wm := map[string]Block{}
						for _, b := range want.Blocks {
							wm[b.Key] = b
						}
						gm := map[string]Block{}
						for _, b := range tokenColl.Blocks {
							gm[b.Key] = b
						}
						for k, wb := range wm {
							gb, ok := gm[k]
							if !ok {
								t.Logf("missing key %s want E1=%v E2=%v", k, wb.E1, wb.E2)
								continue
							}
							if !reflect.DeepEqual(gb.E1, wb.E1) {
								t.Logf("key %s E1 got %v want %v", k, gb.E1, wb.E1)
							}
							if !reflect.DeepEqual(gb.E2, wb.E2) {
								t.Logf("key %s E2 got %v want %v", k, gb.E2, wb.E2)
							}
						}
						for k := range gm {
							if _, ok := wm[k]; !ok {
								t.Logf("extra key %s", k)
							}
						}
						t.Fatalf("round %d: patched token collection diverges (shift=%v)", round, d.Shifted())
					}
					if want := NameBlocksN(next, side2, nameK, 1); !reflect.DeepEqual(nameColl, want) {
						t.Fatalf("round %d: patched name collection diverges", round)
					}
				}
				if fresh := Prepare(next, nameK, 1); !samePreparedFlat(prep1, fresh) {
					t.Fatalf("round %d: patched substrate diverges from fresh Prepare", round)
				}
				cur = next
			}
			if prep1.Depth() > maxOverlayDepth {
				t.Fatalf("overlay depth %d escaped the flatten bound", prep1.Depth())
			}
		})
	}
}

// TestRebuildNames: the wholesale name rebuild (attribute-ranking
// change fallback) matches a fresh Prepare while sharing tokens.
func TestRebuildNames(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	k, err := kb.FromTriples("s1", mutableTriples(rng, "s1", 20, 100))
	if err != nil {
		t.Fatal(err)
	}
	p := Prepare(k, 2, 1)
	got := p.RebuildNames(k, 1, 1) // different nameK forces different name keys
	want := Prepare(k, 1, 1)
	if !samePreparedFlat(got, want) {
		t.Fatal("rebuilt names diverge from fresh Prepare")
	}
	if got.NameK() != 1 {
		t.Fatal("nameK not updated")
	}
}

// TestApplyEdit covers the posting merge edge cases directly.
func TestApplyEdit(t *testing.T) {
	ids := func(xs ...int) []kb.EntityID {
		out := make([]kb.EntityID, len(xs))
		for i, x := range xs {
			out[i] = kb.EntityID(x)
		}
		return out
	}
	cases := []struct {
		old, remove, add, want []kb.EntityID
	}{
		{ids(1, 3, 5), ids(3), ids(4), ids(1, 4, 5)},
		{ids(1, 3, 5), ids(1, 3, 5), nil, ids()},
		{nil, nil, ids(2, 7), ids(2, 7)},
		{ids(2, 7), ids(2, 7), ids(2, 7), ids(2, 7)}, // remove + re-add keeps one copy
		{ids(5), nil, ids(5), ids(5)},                // defensive dedup of an already-present add
		{ids(2, 4, 6), ids(4), ids(0, 9), ids(0, 2, 6, 9)},
	}
	for i, tc := range cases {
		got := applyEdit(tc.old, KeyEdit{Remove: tc.remove, Add: tc.add})
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("case %d: got %v want %v", i, got, tc.want)
		}
	}
}
