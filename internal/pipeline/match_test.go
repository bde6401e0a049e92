package pipeline

import (
	"context"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// randomCands draws a top-K-shaped list over n opposite-side entities:
// distinct IDs, similarities descending, now and then a zero at the end.
func randomCands(rng *rand.Rand, n, k int) []Cand {
	ids := rng.Perm(n)[:rng.Intn(k+1)]
	out := make([]Cand, len(ids))
	sim := 5.0
	for i, id := range ids {
		sim *= rng.Float64()
		out[i] = Cand{ID: kb.EntityID(id), Sim: sim}
	}
	if len(out) > 0 && rng.Intn(4) == 0 {
		out[len(out)-1].Sim = 0
	}
	return out
}

// TestRankAggregationSameThroughFlagsAndMaps: H3 reads the H1/H2 claims
// through dense flags or through the heuristics' maps, chosen by the
// sides' sizes; on a seeded state with claims on both sides, both give
// the same H3, whichever KB emits.
func TestRankAggregationSameThroughFlagsAndMaps(t *testing.T) {
	small, _ := testKBs(t, 60)
	large, _ := testKBs(t, 90)
	for _, tc := range []struct {
		name     string
		kb1, kb2 *kb.KB
	}{{"KB1 emits", small, large}, {"KB2 emits (swap)", large, small}} {
		rng := rand.New(rand.NewSource(11))
		p := testParams()
		st := NewState(tc.kb1, tc.kb2, p)
		n1, n2 := tc.kb1.Len(), tc.kb2.Len()
		st.ValueCands1, st.NeighborCands1 = make([][]Cand, n1), make([][]Cand, n1)
		st.ValueCands2, st.NeighborCands2 = make([][]Cand, n2), make([][]Cand, n2)
		for e := range n1 {
			st.ValueCands1[e], st.NeighborCands1[e] = randomCands(rng, n2, p.K), randomCands(rng, n2, p.K)
		}
		for e := range n2 {
			st.ValueCands2[e], st.NeighborCands2[e] = randomCands(rng, n1, p.K), randomCands(rng, n1, p.K)
		}
		// H1 claims a 1-1 set of pairs, H2 further entities of each side.
		perm1, perm2 := rng.Perm(n1), rng.Perm(n2)
		for i := range 12 {
			e1, e2 := kb.EntityID(perm1[i]), kb.EntityID(perm2[i])
			st.H1Map1[e1], st.H1Map2[e2] = e2, e1
		}
		em := st.emission()
		if em.swap != (tc.kb2.Len() < tc.kb1.Len()) {
			t.Fatalf("%s: emission swap = %v", tc.name, em.swap)
		}
		permA, permB := perm1, perm2
		if em.swap {
			permA, permB = perm2, perm1
		}
		st.H2TakenA, st.H2TakenB = map[kb.EntityID]struct{}{}, map[kb.EntityID]struct{}{}
		for i := 12; i < 24; i++ {
			st.H2TakenA[kb.EntityID(permA[i])] = struct{}{}
			st.H2TakenB[kb.EntityID(permB[i])] = struct{}{}
		}
		em = st.emission()
		// h3 is the RankAggregation stage over the given claims.
		h3 := func(claimed *claims) (out []eval.Pair) {
			m := st.matcher()
			for e := range m.sizeA {
				if eb, ok := m.rankMatch(kb.EntityID(e), claimed); ok {
					out = append(out, m.pair(kb.EntityID(e), eb))
				}
			}
			return out
		}

		var results [2][]eval.Pair
		for i, dense := range []bool{false, true} {
			results[i] = h3(em.claims(dense))
		}
		if len(results[0]) == 0 {
			t.Fatalf("%s: H3 emitted nothing; the fixture is too sparse", tc.name)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: H3 through the maps (%d pairs) != through the dense flags (%d pairs)", tc.name, len(results[0]), len(results[1]))
		}
		// The claims were honoured, and mattered: no pair uses a claimed
		// entity of either side, while without claims some would.
		claimed := em.claims(false)
		uses := func(pairs []eval.Pair) (a, b int) {
			for _, pr := range pairs {
				ea, eb := pr.E1, pr.E2
				if em.swap {
					ea, eb = eb, ea
				}
				if claimed.takenA(ea) {
					a++
				}
				if claimed.takenB(eb) {
					b++
				}
			}
			return a, b
		}
		if a, b := uses(results[1]); a+b > 0 {
			t.Fatalf("%s: %d + %d H3 pairs use an entity H1 or H2 claimed", tc.name, a, b)
		}
		if a, b := uses(h3(&claims{})); a == 0 || b == 0 {
			t.Fatalf("%s: with no claims, %d + %d pairs use a claimed entity; the fixture needs both to test the skips", tc.name, a, b)
		}
		// And the size rule picks the flags for a pair like this one.
		if em.newClaims().denseB == nil {
			t.Errorf("%s: a %d x %d run reads the claim maps; it should build the flags", tc.name, em.sizeA, em.sizeB)
		}
	}
}

// TestDeltaRankAggregationAllocationIndependentOfKBSize: a one-entity
// delta emits for one entity; H3 must not allocate (or clear) anything
// proportional to the prepared KB on its behalf.
func TestDeltaRankAggregationAllocationIndependentOfKBSize(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	p.Workers = 1
	const limit = 2 << 10 // claims, the rank scratch and H3's first append: a few hundred bytes
	for _, n := range []int{1 << 10, 1 << 14} {
		// The delta entity shares one token with two KB1 entities: no name
		// match for H1, a value similarity below 1 for H2, a candidate for H3.
		kb1 := chainKB(t, "a", "http://v/name", "http://v/link", n, map[int]string{
			7: "entity number 0007 omega shared", 8: "entity number 0008 omega shared"})
		delta := chainKB(t, "b", "http://v/title", "http://v/rel", 1, map[int]string{0: "newcomer shared"})
		st, err := NewDeltaState(PrepareSide(kb1, p), delta, p)
		if err != nil {
			t.Fatal(err)
		}
		runPlan(t, Until(DeltaPlan(), StageValueMatching), st)
		if c := st.emission().newClaims(); c.denseA != nil || c.denseB != nil {
			t.Fatalf("|KB1|=%d: a one-entity delta built dense claim flags", n)
		}
		best := uint64(1 << 62)
		for range 5 {
			st.H3 = nil
			stats, err := (&Engine{Plan: []Stage{RankAggregation()}, Progress: func(ProgressEvent) {}}).Run(ctx, st)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, stats[0].AllocBytes)
		}
		if len(st.H3) != 1 {
			t.Fatalf("|KB1|=%d: H3 emitted %d pairs for the one delta entity, want 1 (H1/H2 claimed it?)", n, len(st.H3))
		}
		if best > limit {
			t.Errorf("|KB1|=%d: RankAggregation of a one-entity delta allocated %d bytes, want <= %d at any KB size", n, best, limit)
		}
	}
}

// TestDeltaQueryAllocationIndependentOfKBSize: once its Prepared is
// warm, a one-entity delta run allocates the same bounded amount
// whether KB1 holds 2^10 or 2^14 entities with the same joined
// membership. The KB1-sized scratch — the side-1 block index and the
// accumulators scoring the delta entity against KB1 — comes from the
// Prepared's pools, and nothing else in the run is KB1-sized.
func TestDeltaQueryAllocationIndependentOfKBSize(t *testing.T) {
	p := testParams()
	p.Workers = 1
	const limit = 12 << 10 // the run's own delta-sized state: about 4.8 KB
	for _, n := range []int{1 << 10, 1 << 14} {
		// As in the H3 guard above: one token shared with two KB1 entities.
		kb1 := chainKB(t, "a", "http://v/name", "http://v/link", n, map[int]string{
			7: "entity number 0007 omega shared", 8: "entity number 0008 omega shared"})
		delta := chainKB(t, "b", "http://v/title", "http://v/rel", 1, map[int]string{0: "newcomer shared"})
		prep := PrepareSide(kb1, p)
		query := func() {
			st, err := NewDeltaState(prep, delta, p)
			if err != nil {
				t.Fatal(err)
			}
			runPlan(t, DeltaPlan(), st)
			if len(st.Matches) != 1 {
				t.Fatalf("|KB1|=%d: %d matches, want the one H3 pair", n, len(st.Matches))
			}
			st.Release()
		}
		query() // warm-up: fills the Prepared's pools
		// The best of many runs: under -race, sync.Pool drops a random
		// quarter of its Puts, so a run may find a pool empty.
		best := uint64(1 << 62)
		for range 20 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			query()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if best > limit {
			t.Errorf("|KB1|=%d: a warm one-entity delta run allocated %d bytes, want <= %d at any KB size", n, best, limit)
		}
	}
}

// TestRankScratchReuseLeaksNothing: a scratch that just aggregated long
// lists must answer a following short query exactly as a fresh one.
func TestRankScratchReuseLeaksNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	noskip := func(kb.EntityID) bool { return false }
	var reused rankScratch
	for round := range 200 {
		k := 15
		if round%2 == 1 {
			k = 2 // a shorter pair of lists right after a longer one
		}
		value, neighbor := randomCands(rng, 40, k), randomCands(rng, 40, k)
		skip := noskip
		if round%3 == 0 {
			skip = func(id kb.EntityID) bool { return id%4 == 0 }
		}
		got, gotOK := reused.aggregateRanks(value, neighbor, 0.6, skip)
		want, wantOK := new(rankScratch).aggregateRanks(value, neighbor, 0.6, skip)
		if got != want || gotOK != wantOK {
			t.Fatalf("round %d: reused scratch answers (%d,%v), fresh one (%d,%v)", round, got, gotOK, want, wantOK)
		}
	}
}

// TestDeltaReciprocityFillsNeighborsOnlyOnValueMiss: H4 asks the lazy
// side 1 of a delta run for E1's neighbor candidates only when E2 is
// missing from E1's value candidates, so after the delta plan the side's
// neighbor memo holds exactly the E1s of such checked pairs.
func TestDeltaReciprocityFillsNeighborsOnlyOnValueMiss(t *testing.T) {
	ds, err := datagen.Restaurant(datagen.Options{Seed: 42, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	prep := PrepareSide(ds.KB1, p)
	gt := ds.GT.Pairs()
	valueHits := 0
	for _, n := range []int{1, 16} {
		uris := make([]string, n)
		for i := range uris {
			uris[i] = ds.KB2.URI(gt[i*len(gt)/n].E2)
		}
		delta, _, err := kb.FromTriplesSubset("delta", ds.Triples2, uris)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewDeltaState(prep, delta, p)
		if err != nil {
			t.Fatal(err)
		}
		runPlan(t, Until(DeltaPlan(), StageUnion), st)
		checked := slices.Clone(st.Matches)
		if len(checked) == 0 {
			t.Fatalf("%d-entity delta: no pair reaches H4; fixture too small", n)
		}
		runPlan(t, []Stage{Reciprocity()}, st)
		want := map[kb.EntityID]bool{}
		for _, pr := range checked {
			value, filled := st.lazy1.vals.own[pr.E1]
			if !filled {
				t.Fatalf("%d-entity delta: H4 checked %v without E1's value list", n, pr)
			}
			if slices.ContainsFunc(value, func(c Cand) bool { return c.ID == pr.E2 }) {
				valueHits++
			} else {
				want[pr.E1] = true
			}
		}
		got := slices.Sorted(maps.Keys(st.lazy1.neis.own))
		if wantIDs := slices.Sorted(maps.Keys(want)); !slices.Equal(got, wantIDs) {
			t.Errorf("%d-entity delta: side-1 neighbor lists filled for %v, want exactly the value misses %v", n, got, wantIDs)
		}
	}
	if valueHits == 0 {
		t.Fatal("no checked pair was confirmed by E1's value list; the fixture cannot tell a short-circuit from a full check")
	}
}
