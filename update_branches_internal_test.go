package minoaner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/binio"
	"minoaner/internal/blocking"
)

// Rebuild-equivalence cases for the two update branches random
// mutation traffic on the test fixtures never reaches: a purge cutoff
// that moves (the benchmarks' default floor of 25 entities pins it on
// every small fixture) and a mutation that reorders a KB's relation
// ranking. Each case checks its branch's precondition, so a fixture
// drift that stops forcing the branch fails loudly instead of passing
// vacuously.

// ntOf renders a benchmark KB as N-Triples.
func ntOf(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func loadNT(t *testing.T, name, doc string) *KB {
	t.Helper()
	k, err := LoadKB(name, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// assertMatchesRebuild checks the mutated index against BuildIndex over
// the mutated KBs: matches, Stats (up to provenance), the candidate
// evidence the next mutation starts from, and the snapshot
// sections that hold the resolution — stats, matches and the prepared
// substrate. The config section (its inventory lists the journal), the
// journal, and the KB sections (a mutated store keeps its own term
// table and source records) differ by design.
func assertMatchesRebuild(t *testing.T, ix *Index, kb1, kb2 *KB, cfg Config) {
	t.Helper()
	fresh, err := BuildIndex(kb1, kb2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Matches(), fresh.Matches(); !reflect.DeepEqual(got, want) {
		t.Fatalf("matches diverge from rebuild (%d vs %d)", len(got), len(want))
	}
	gs, ws := ix.Stats(), fresh.Stats()
	ws.Epoch, ws.JournalLength = gs.Epoch, gs.JournalLength
	if gs != ws {
		t.Fatalf("stats diverge from rebuild:\n got %+v\nwant %+v", gs, ws)
	}
	// The evidence the next mutation starts from: both sides' value and
	// neighbor candidate lists and best-neighbor views.
	fe := fresh.cur.Load()
	fresh.mu.Lock()
	err = fresh.ensureMutator(context.Background(), fe)
	fresh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	gc, wc := ix.cur.Load().d.cache.Load(), fe.d.cache.Load()
	for _, ev := range []struct {
		name      string
		got, want any
	}{
		{"value candidates 1", gc.VC1, wc.VC1},
		{"value candidates 2", gc.VC2, wc.VC2},
		{"neighbor candidates 1", gc.NC1, wc.NC1},
		{"neighbor candidates 2", gc.NC2, wc.NC2},
		{"best neighbors 1", gc.Side1.Neighbors.TopLists(), wc.Side1.Neighbors.TopLists()},
		{"best neighbors 2", gc.Side2.Neighbors.TopLists(), wc.Side2.Neighbors.TopLists()},
	} {
		if !reflect.DeepEqual(ev.got, ev.want) {
			t.Fatalf("%s diverge from rebuild", ev.name)
		}
	}

	sections := func(ix *Index) *binio.Map {
		var buf bytes.Buffer
		if err := SaveIndex(&buf, ix); err != nil {
			t.Fatal(err)
		}
		m, err := binio.BytesMap(buf.Bytes(), snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	got, want := sections(ix), sections(fresh)
	for _, id := range []uint64{snapStats, snapMatches, snapPrepared} {
		g, err := got.Section(id)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Section(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("snapshot section %d diverges from rebuild (%d vs %d bytes)", id, len(g), len(w))
		}
	}
}

// TestUpdatePurgeCutoffMoveMatchesRebuild moves KB2's purge cutoff
// by one KB2 entity under purge parameters chosen so that the cutoff
// crosses s, where s is the KB2 size of a block the mutation does not
// touch: that block flips purge status although none of its keys was
// edited, which only the cutoff pass of the update's block indexing can
// see. An insert raises the cutoff from s-1 to s and the block starts
// surviving (it is in the new purged B_T only); a delete lowers it from
// s to s-1 and the block starts being purged (it is in the old purged
// B_T only).
func TestUpdatePurgeCutoffMoveMatchesRebuild(t *testing.T) {
	b, err := GenerateBenchmark("Restaurant", 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := b.KB1.Len(), b.KB2.Len()
	raw := blocking.TokenBlocks(b.KB1.kb, b.KB2.kb)
	// The smallest such s whose block also survives KB1's cutoff under
	// the same fraction: small blocks weigh most, so the flip moves
	// matches.
	var fraction float64
	for s := 2; s <= n2 && fraction == 0; s++ {
		f := (float64(s) + 1e-6) / float64(n2+1)
		for _, blk := range raw.Blocks {
			if len(blk.E2) == s && len(blk.E1) <= max(int(f*float64(n1)), 1) {
				fraction = f
				break
			}
		}
	}
	if fraction == 0 {
		t.Fatal("no token block to move the cutoff across")
	}
	cfg := DefaultConfig()
	cfg.PurgeEntityFraction, cfg.PurgeMinEntities = fraction, 1
	const uri = "http://cutoff/new"
	insert := "<" + uri + "> <http://cutoff/name> \"zyxwv qutsr\" .\n"
	withInsert := func(t *testing.T) *KB { return loadNT(t, "kb2", ntOf(t, b.WriteKB2)+insert) }

	for _, tc := range []struct {
		name           string
		built, mutated func(t *testing.T) *KB // KB2 before and after the mutation
		mutate         func(t *testing.T, ix *Index) error
		rise           bool
	}{
		{"insert raises", func(*testing.T) *KB { return b.KB2 }, withInsert,
			func(t *testing.T, ix *Index) error {
				return ix.Upsert(context.Background(), 2, loadNT(t, "delta", insert))
			}, true},
		{"delete lowers", withInsert, func(*testing.T) *KB { return b.KB2 },
			func(t *testing.T, ix *Index) error { return ix.Delete(context.Background(), 2, uri) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := BuildIndex(b.KB1, tc.built(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := ix.cur.Load().purge
			if err := tc.mutate(t, ix); err != nil {
				t.Fatal(err)
			}
			after := ix.cur.Load().purge
			step, removed := 1, after.RemovedBlocks < before.RemovedBlocks
			if !tc.rise {
				step, removed = -1, after.RemovedBlocks > before.RemovedBlocks
			}
			if after.Cutoff2 != before.Cutoff2+step || after.Cutoff1 != before.Cutoff1 {
				t.Fatalf("cutoffs %d/%d -> %d/%d: the mutation must move KB2's by %d",
					before.Cutoff1, before.Cutoff2, after.Cutoff1, after.Cutoff2, step)
			}
			if !removed {
				t.Fatalf("purged blocks %d -> %d: no untouched block flipped", before.RemovedBlocks, after.RemovedBlocks)
			}
			assertMatchesRebuild(t, ix, b.KB1, tc.mutated(t), cfg)
		})
	}
}

// relFixture renders a small KB whose entities carry a name and two
// relations: a on the first aOn entities, b on the entities listed in
// bOn. Every object is distinct, so each relation's importance follows
// its support.
func relFixture(prefix string, n, aOn int, bOn []int) string {
	var sb strings.Builder
	uri := func(i int) string { return fmt.Sprintf("<http://%s/e%d>", prefix, i) }
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%s <http://rel/name> \"item %d %s\" .\n", uri(i), i, strings.Repeat("q", i%4+1))
	}
	for i := 0; i < aOn; i++ {
		fmt.Fprintf(&sb, "%s <http://rel/a> %s .\n", uri(i), uri((i+1)%n))
	}
	for _, i := range bOn {
		fmt.Fprintf(&sb, "%s <http://rel/b> %s .\n", uri(i), uri((i+n-1)%n))
	}
	return sb.String()
}

// relOrder lists a KB's relations by descending importance.
func relOrder(k *KB) []string {
	var out []string
	for _, st := range k.kb.RelStats() {
		out = append(out, k.kb.Pred(st.Pred))
	}
	return out
}

// TestUpdateRelationRankingMoveMatchesRebuild rewrites one KB so that
// its relation b overtakes a: every best-neighbor list of that side is
// recomputed — entities 5 and 6 hold both relations and switch, though
// no edge of theirs changed — and so is the neighbor evidence of every
// entity whose best neighbors' candidates meet that side's old or new
// lists. Each side is re-ranked in turn.
func TestUpdateRelationRankingMoveMatchesRebuild(t *testing.T) {
	const n = 12
	bBefore := []int{6, 7, 8, 9}
	bAfter := []int{0, 6, 7, 8, 9, 10, 11}
	// One relation per entity: an entity holding both follows the one
	// ranked first.
	cfg := DefaultConfig()
	cfg.N = 1
	for _, side := range []int{1, 2} {
		t.Run(fmt.Sprintf("kb%d", side), func(t *testing.T) {
			prefix := [2]string{"left", "right"}[side-1]
			kbs := [2]*KB{
				loadNT(t, "kb1", relFixture("left", n, 6, bBefore)),
				loadNT(t, "kb2", relFixture("right", n, 6, bBefore)),
			}
			ix, err := BuildIndex(kbs[0], kbs[1], cfg)
			if err != nil {
				t.Fatal(err)
			}

			// The upsert replaces the descriptions of entities 0, 10
			// and 11, each gaining a b link.
			mutated := relFixture(prefix, n, 6, bAfter)
			var delta strings.Builder
			for _, line := range strings.SplitAfter(mutated, "\n") {
				for _, e := range []int{0, 10, 11} {
					if strings.HasPrefix(line, fmt.Sprintf("<http://%s/e%d> ", prefix, e)) {
						delta.WriteString(line)
					}
				}
			}
			if err := ix.Upsert(context.Background(), side, loadNT(t, "delta", delta.String())); err != nil {
				t.Fatal(err)
			}
			old, now := relOrder(kbs[side-1]), relOrder([2]*KB{ix.KB1(), ix.KB2()}[side-1])
			if reflect.DeepEqual(old, now) || len(old) != 2 || len(now) != 2 {
				t.Fatalf("relation ranking %v -> %v: the rewrite must reorder it", old, now)
			}
			kbs[side-1] = loadNT(t, "mutated", mutated)
			assertMatchesRebuild(t, ix, kbs[0], kbs[1], cfg)
		})
	}
}
