package pipeline

import (
	"context"
	"reflect"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// TestUpdateAllocatesAccumulatorsOnlyForAffectedChunks: a mutation that
// affects a handful of entities must not pay a dense accumulator (one
// float per opposite-side entity) in every worker chunk of both
// candidate stages.
func TestUpdateAllocatesAccumulatorsOnlyForAffectedChunks(t *testing.T) {
	const n, workers = 4096, 32
	p := testParams()
	p.Workers = workers
	ctx := context.Background()
	kb1, old2 := testKBs(t, n)
	// Entity 100 of the second KB trades its distinctive token for its
	// neighbor's: two token blocks change members, four entities' sums move.
	new2 := chainKB(t, "b", "http://v/title", "http://v/rel", n, map[int]string{100: "entity number 0101 omega"})

	base := runPlan(t, DefaultPlan(), NewState(kb1, old2, p))
	prev, err := NewCache(ctx, base, base.NameBlocks, base.PurgeStats)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUpdateState(prev, kb1, old2, kb1, new2, p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := (&Engine{Plan: UpdatePatchPlan(), Progress: func(ProgressEvent) {}}).Run(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2, n1, n2 := st.UpdateCounters()
	if v1 == 0 || v2 == 0 || n1+n2 == 0 {
		t.Fatalf("mutation affected (%d,%d) value and (%d,%d) neighbor lists; the test needs some on each stage", v1, v2, n1, n2)
	}
	if affected := v1 + v2 + n1 + n2; affected > workers/2 {
		t.Fatalf("%d affected entities: too many to leave most of %d chunks untouched", affected, workers)
	}
	// One side's accumulators, were every chunk to allocate one. Both
	// stages run two sides, so the eager allocation is twice this; the
	// lazy one is a few chunks' worth plus the output arrays.
	eagerSide := uint64(workers * n * 8)
	for _, stat := range stats {
		if stat.Stage != StageValueCandidates && stat.Stage != StageNeighborCandidates {
			continue
		}
		if stat.AllocBytes >= eagerSide {
			t.Errorf("stage %s allocated %d bytes, want well under %d (a dense accumulator per chunk of one side)",
				stat.Stage, stat.AllocBytes, eagerSide)
		}
	}
}

// TestEvidenceUnchanged pins the adoption shortcut of an update run:
// after the patch plan, EvidenceUnchanged holds exactly when no
// matching input moved — B_N's inputs and all four candidate arrays —
// and then the matching plan reproduces the previous epoch's outputs.
func TestEvidenceUnchanged(t *testing.T) {
	const n = 200
	p := testParams()
	p.NameK = 1 // KB2's titles; a note attribute on one entity stays out
	ctx := context.Background()
	kb1, old2 := testKBs(t, n)
	base := runPlan(t, DefaultPlan(), NewState(kb1, old2, p))
	prev, err := NewCache(ctx, base, base.NameBlocks, base.PurgeStats)
	if err != nil {
		t.Fatal(err)
	}
	prev.SetMatches(base.H1, base.H2, base.H3, base.Matches, base.DiscardedByH4)

	iri, lit := rdf.NewIRI, rdf.NewLiteral
	// rewrite is the full new description of KB2's entity 100: a title,
	// its chain link, and optionally a note.
	rewrite := func(title, note string) []rdf.Triple {
		s := iri("http://b/e0100")
		ts := []rdf.Triple{
			rdf.NewTriple(s, iri("http://v/title"), lit(title)),
			rdf.NewTriple(s, iri("http://v/rel"), iri("http://b/e0099")),
		}
		if note != "" {
			ts = append(ts, rdf.NewTriple(s, iri("http://v/note"), lit(note)))
		}
		return ts
	}
	for _, tc := range []struct {
		name  string
		delta []rdf.Triple
		want  bool
	}{
		// The note's tokens occur nowhere in KB1: they form no block.
		{"note with unseen tokens", rewrite("entity number 0100 omega", "zzqx ywvu"), true},
		// The old name was a one-to-one name block (an H1 match).
		{"renamed", rewrite("entity renamed 0100 omega", ""), false},
		// The URI sorts before every other: every KB2 ID shifts.
		{"shifting insert", []rdf.Triple{rdf.NewTriple(iri("http://b/a0000"), iri("http://v/title"), lit("first of all"))}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := kb.NewStore(old2)
			if err != nil {
				t.Fatal(err)
			}
			delta, err := kb.FromTriples("delta", tc.delta)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := store.Apply(delta, nil); err != nil {
				t.Fatal(err)
			}
			new2 := store.Assemble(old2)
			st, err := NewUpdateState(prev, kb1, old2, kb1, new2, p)
			if err != nil {
				t.Fatal(err)
			}
			runPlan(t, UpdatePatchPlan(), st)
			if got := st.EvidenceUnchanged(); got != tc.want {
				t.Fatalf("EvidenceUnchanged = %v, want %v", got, tc.want)
			}
			if tc.name == "renamed" {
				// Only the name key moved: the candidate arrays are
				// shared, so B_N's condition alone decides.
				for _, pair := range [][2][][]Cand{{st.ValueCands1, prev.VC1}, {st.ValueCands2, prev.VC2},
					{st.NeighborCands1, prev.NC1}, {st.NeighborCands2, prev.NC2}} {
					if !sameCandArray(pair[0], pair[1]) {
						t.Fatal("a candidate array was recomputed; the case no longer isolates B_N")
					}
				}
			}
			if !tc.want {
				return
			}
			runPlan(t, UpdateMatchPlan(), st)
			if !reflect.DeepEqual(st.Matches, base.Matches) || !reflect.DeepEqual(st.H1, base.H1) ||
				!reflect.DeepEqual(st.H2, base.H2) || !reflect.DeepEqual(st.H3, base.H3) ||
				st.DiscardedByH4 != base.DiscardedByH4 {
				t.Fatal("the matching plan's outputs differ from the previous epoch's the shortcut adopts")
			}
		})
	}
}

// TestUpdateMixedRewriteAndDelete: one diff rewrites an entity that
// keeps a token and deletes another entity holding the same token. The
// token's posting keeps the rewritten member and loses the deleted one,
// so its block changed although the rewritten entity's own keys did
// not, and every entity whose value list named the deleted one must be
// recomputed. The update must reproduce the full plan over the new KBs.
func TestUpdateMixedRewriteAndDelete(t *testing.T) {
	const n = 50
	p := testParams()
	ctx := context.Background()
	iri, lit := rdf.NewIRI, rdf.NewLiteral
	kb1 := chainKB(t, "a", "http://v/name", "http://v/link", n, nil)
	store, err := kb.NewStore(chainKB(t, "b", "http://v/title", "http://v/rel", n, nil))
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ts []rdf.Triple, deletes []string) *kb.KB {
		t.Helper()
		var delta *kb.KB
		if len(ts) > 0 {
			if delta, err = kb.FromTriples("delta", ts); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := store.Apply(delta, deletes); err != nil {
			t.Fatal(err)
		}
		return store.Assemble(nil)
	}
	// x's one token, 0010, is also held by entity 10 of both KBs; its
	// URI sorts first, so deleting it shifts every KB2 ID.
	const x = "http://b/d0010"
	old2 := apply([]rdf.Triple{rdf.NewTriple(iri(x), iri("http://v/title"), lit("0010"))}, nil)

	base := runPlan(t, DefaultPlan(), NewState(kb1, old2, p))
	prev, err := NewCache(ctx, base, base.NameBlocks, base.PurgeStats)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := kb1.Lookup("http://a/e0010")
	xID, _ := old2.Lookup(x)
	named := false
	for _, c := range prev.VC1[y] {
		named = named || c.ID == xID
	}
	if !named {
		t.Fatalf("KB1's entity 10 does not name x among its value candidates %v; the case needs it to", prev.VC1[y])
	}

	// Entity 10 of KB2 keeps its title and link and gains a note; x goes.
	e := iri("http://b/e0010")
	new2 := apply([]rdf.Triple{
		rdf.NewTriple(e, iri("http://v/title"), lit("entity number 0010 omega")),
		rdf.NewTriple(e, iri("http://v/rel"), iri("http://b/e0009")),
		rdf.NewTriple(e, iri("http://v/note"), lit("zzqx")),
	}, []string{x})
	st, err := NewUpdateState(prev, kb1, old2, kb1, new2, p)
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, UpdatePlan(), st)
	want := runPlan(t, DefaultPlan(), NewState(kb1, new2, p))
	if !reflect.DeepEqual(got.ValueCands1, want.ValueCands1) || !reflect.DeepEqual(got.ValueCands2, want.ValueCands2) {
		t.Fatal("value candidates differ from the full plan over the new KBs")
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || !reflect.DeepEqual(got.H1, want.H1) ||
		!reflect.DeepEqual(got.H2, want.H2) || !reflect.DeepEqual(got.H3, want.H3) {
		t.Fatal("matches differ from the full plan over the new KBs")
	}
}

// TestUpdateRequiresCutoffPurge: the update plan reads block liveness
// from posting sizes and the purge cutoffs, so a plan whose purging
// stage keeps every block is refused rather than answered wrongly.
func TestUpdateRequiresCutoffPurge(t *testing.T) {
	p := testParams()
	kb1, old2 := testKBs(t, 50)
	new2 := chainKB(t, "b", "http://v/title", "http://v/rel", 50, map[int]string{10: "entity renamed 0010 omega"})
	base := runPlan(t, DefaultPlan(), NewState(kb1, old2, p))
	prev, err := NewCache(context.Background(), base, base.NameBlocks, base.PurgeStats)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUpdateState(prev, kb1, old2, kb1, new2, p)
	if err != nil {
		t.Fatal(err)
	}
	plan := Replace(UpdatePlan(), StageBlockPurging, KeepAllBlocks())
	if _, err := (&Engine{Plan: plan}).Run(context.Background(), st); err == nil {
		t.Fatal("the update plan ran over blocks KeepAllBlocks left unpurged")
	}
}
