package blocking

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

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

// preparedBytes returns the substrate's serialization.
func preparedBytes(t *testing.T, p *Prepared) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
// and the joins of the patched substrates equal the reference
// constructions over the mutated KBs. Every patch leaves its receiver,
// the previous epoch's substrate that readers may still join, byte for
// byte unchanged.
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

			prep1 := Prepare(side1, nameK, 2, nil)
			prep2 := Prepare(side2, nameK, 2, nil)
			assertJoins := func(what string, k1 *kb.KB) {
				t.Helper()
				if got, want := JoinTokenBlocks(prep1, prep2), referenceTokenBlocks(k1, side2); !reflect.DeepEqual(got, want) {
					logBlockDiff(t, got, want)
					t.Fatalf("%s: joined token blocks diverge from the reference", what)
				}
				if got, want := JoinNameBlocks(prep1, prep2), referenceNameBlocks(k1, side2, nameK); !reflect.DeepEqual(got, want) {
					logBlockDiff(t, got, want)
					t.Fatalf("%s: joined name blocks diverge from the reference", what)
				}
			}
			assertJoins("build", side1)

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
					// the substrate wholesale (the name rebuild itself is
					// covered by TestRebuildNames).
					prep1 = Prepare(next, nameK, 1, nil)
				} else {
					pt := BuildPreparedPatch(cur, next, d, cur.TopNameAttributes(nameK), next.TopNameAttributes(nameK))
					before := preparedBytes(t, prep1)
					patched := prep1.ApplyPatch(pt)
					if !bytes.Equal(preparedBytes(t, prep1), before) {
						t.Fatalf("round %d: ApplyPatch changed its receiver (shift=%v)", round, d.Shifted())
					}
					prep1 = patched
				}
				assertJoins(fmt.Sprintf("round %d (shift=%v)", round, d.Shifted()), next)
				if fresh := Prepare(next, nameK, 1, nil); !reflect.DeepEqual(prep1, fresh) {
					t.Fatalf("round %d: patched substrate diverges from fresh Prepare", round)
				}
				cur = next
			}
		})
	}
}

// logBlockDiff logs, key by key, how a collection differs from the
// expected one.
func logBlockDiff(t *testing.T, got, want *Collection) {
	t.Helper()
	wm := map[string]Block{}
	for _, b := range want.Blocks {
		wm[b.Key] = b
	}
	gm := map[string]Block{}
	for _, b := range got.Blocks {
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
}

// TestRebuildNames: the wholesale name rebuild (attribute-ranking
// change fallback) matches a fresh Prepare while sharing tokens.
func TestRebuildNames(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	k, err := kb.FromTriples("s1", mutableTriples(rng, "s1", 20, 100))
	if err != nil {
		t.Fatal(err)
	}
	p := Prepare(k, 2, 1, nil)
	got := p.RebuildNames(k, 1, 1) // different nameK forces different name keys
	want := Prepare(k, 1, 1, nil)
	if !reflect.DeepEqual(got, want) {
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
