package core

// Golden-equivalence guard for the staged pipeline: referenceRun below
// preserves the pre-refactor monolithic Matcher.Run (and the candidate
// scoring it inlined) verbatim, as a test-only oracle. The staged
// DefaultPlan must reproduce its Result — matches, per-heuristic
// contributions, H4 discards, and block accounting — bit for bit on
// every synthetic benchmark, at any worker count, under every ablation
// flag.

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

const goldenScale = 0.1

func goldenDatasets(t testing.TB) []*datagen.Dataset {
	t.Helper()
	var out []*datagen.Dataset
	for _, g := range datagen.Generators() {
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: goldenScale})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds)
	}
	if len(out) != 4 {
		t.Fatalf("expected the 4 paper benchmarks, got %d", len(out))
	}
	return out
}

func assertResultsEqual(t *testing.T, label string, got *Result, want *refResult) {
	t.Helper()
	check := func(field string, g, w []eval.Pair) {
		if !samePairs(g, w) {
			t.Errorf("%s: %s diverged: staged %d pairs, reference %d", label, field, len(g), len(w))
		}
	}
	check("Matches", got.Matches, want.Matches)
	check("H1", got.H1, want.H1)
	check("H2", got.H2, want.H2)
	check("H3", got.H3, want.H3)
	if got.DiscardedByH4 != want.DiscardedByH4 {
		t.Errorf("%s: DiscardedByH4 = %d, want %d", label, got.DiscardedByH4, want.DiscardedByH4)
	}
	if got.NameBlockCount != want.NameBlockCount || got.TokenBlockCount != want.TokenBlockCount {
		t.Errorf("%s: block counts = (%d, %d), want (%d, %d)", label,
			got.NameBlockCount, got.TokenBlockCount, want.NameBlockCount, want.TokenBlockCount)
	}
	if got.NameComparisons != want.NameComparisons || got.TokenComparisons != want.TokenComparisons {
		t.Errorf("%s: comparisons = (%d, %d), want (%d, %d)", label,
			got.NameComparisons, got.TokenComparisons, want.NameComparisons, want.TokenComparisons)
	}
	if !reflect.DeepEqual(got.Purge, want.Purge) {
		t.Errorf("%s: purge stats = %+v, want %+v", label, got.Purge, want.Purge)
	}
}

// samePairs compares pair slices treating nil and empty as equal.
func samePairs(a, b []eval.Pair) bool {
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

func TestGoldenEquivalenceOnBenchmarks(t *testing.T) {
	for _, ds := range goldenDatasets(t) {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			m, err := NewMatcher(ds.KB1, ds.KB2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Run()
			want := referenceRun(ds.KB1, ds.KB2, cfg)
			label := ds.Name + "/workers=" + itoa(workers)
			assertResultsEqual(t, label, got, want)
			if len(got.Stages) == 0 {
				t.Errorf("%s: no stage stats recorded", label)
			}
		}
	}
}

func TestGoldenEquivalenceUnderAblations(t *testing.T) {
	ds := goldenDatasets(t)[2] // BBCmusic-DBpedia: all four heuristics contribute
	mutate := []func(*Config){
		func(c *Config) { c.DisableH1 = true },
		func(c *Config) { c.DisableH2 = true },
		func(c *Config) { c.DisableH3 = true },
		func(c *Config) { c.DisableH4 = true },
		func(c *Config) { c.DisableH1, c.DisableH3 = true, true },
		func(c *Config) { c.Purge = blocking.NoPurge() },
		func(c *Config) { c.Theta = 0.2 },
		func(c *Config) { c.K = 5 },
	}
	for i, mut := range mutate {
		cfg := DefaultConfig()
		mut(&cfg)
		m, err := NewMatcher(ds.KB1, ds.KB2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, "ablation "+itoa(i), m.Run(), referenceRun(ds.KB1, ds.KB2, cfg))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// ---------------------------------------------------------------------
// The pre-refactor implementation, kept verbatim below as the oracle.
// ---------------------------------------------------------------------

type refResult struct {
	Matches                           []eval.Pair
	H1, H2, H3                        []eval.Pair
	DiscardedByH4                     int
	NameBlockCount, TokenBlockCount   int
	NameComparisons, TokenComparisons int64
	Purge                             blocking.PurgeResult
}

type refCand struct {
	ID  kb.EntityID
	Sim float64
}

type refEvidence struct {
	value    [][]refCand
	neighbor [][]refCand
}

func referenceRun(kb1, kb2 *kb.KB, cfg Config) *refResult {
	res := &refResult{}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	bn := blocking.NameBlocks(kb1, kb2, cfg.NameK)
	res.NameBlockCount = bn.Size()
	res.NameComparisons = bn.Comparisons()

	bt := blocking.TokenBlocks(kb1, kb2)
	bt, res.Purge = blocking.Purge(bt, cfg.Purge)
	res.TokenBlockCount = bt.Size()
	res.TokenComparisons = bt.Comparisons()
	idx := bt.BuildIndex()

	h1map1 := make(map[kb.EntityID]kb.EntityID)
	h1map2 := make(map[kb.EntityID]kb.EntityID)
	if !cfg.DisableH1 {
		for i := range bn.Blocks {
			b := &bn.Blocks[i]
			if len(b.E1) != 1 || len(b.E2) != 1 {
				continue
			}
			e1, e2 := b.E1[0], b.E2[0]
			if _, taken := h1map1[e1]; taken {
				continue
			}
			if _, taken := h1map2[e2]; taken {
				continue
			}
			h1map1[e1] = e2
			h1map2[e2] = e1
			res.H1 = append(res.H1, eval.Pair{E1: e1, E2: e2})
		}
	}

	weights := refTokenWeights(bt)
	vc1, vc2 := refValueCandidates(bt, idx, weights, cfg.K, workers)
	nc1, nc2 := refNeighborCandidates(kb1, kb2, vc1, vc2, cfg.N, cfg.K, workers)
	ev1 := &refEvidence{value: vc1, neighbor: nc1}
	ev2 := &refEvidence{value: vc2, neighbor: nc2}

	swap := kb2.Len() < kb1.Len()
	evA := ev1
	h1A := h1map1
	h1B := h1map2
	sizeA := kb1.Len()
	if swap {
		evA = ev2
		h1A, h1B = h1map2, h1map1
		sizeA = kb2.Len()
	}
	emit := func(a, b kb.EntityID) eval.Pair {
		if swap {
			return eval.Pair{E1: b, E2: a}
		}
		return eval.Pair{E1: a, E2: b}
	}

	h2A := make(map[kb.EntityID]struct{})
	h2B := make(map[kb.EntityID]struct{})
	if !cfg.DisableH2 {
		for e := 0; e < sizeA; e++ {
			ea := kb.EntityID(e)
			if _, done := h1A[ea]; done {
				continue
			}
			best, ok := refFirstEligible(evA.value[ea], h1B)
			if !ok || best.Sim < 1 {
				continue
			}
			res.H2 = append(res.H2, emit(ea, best.ID))
			h2A[ea] = struct{}{}
			h2B[best.ID] = struct{}{}
		}
	}

	if !cfg.DisableH3 {
		for e := 0; e < sizeA; e++ {
			ea := kb.EntityID(e)
			if _, done := h1A[ea]; done {
				continue
			}
			if _, done := h2A[ea]; done {
				continue
			}
			skip := func(id kb.EntityID) bool {
				if _, t := h1B[id]; t {
					return true
				}
				_, t := h2B[id]
				return t
			}
			best, ok := refAggregateRanks(evA.value[ea], evA.neighbor[ea], cfg.Theta, skip)
			if !ok {
				continue
			}
			res.H3 = append(res.H3, emit(ea, best))
		}
	}

	union := refDedupPairs(append(append(append([]eval.Pair{}, res.H1...), res.H2...), res.H3...))
	if cfg.DisableH4 {
		res.Matches = union
	} else {
		for _, p := range union {
			if refReciprocal(ev1, ev2, p) {
				res.Matches = append(res.Matches, p)
			} else {
				res.DiscardedByH4++
			}
		}
	}
	refSortPairs(res.Matches)
	return res
}

func refFirstEligible(cands []refCand, h1Taken map[kb.EntityID]kb.EntityID) (refCand, bool) {
	for _, c := range cands {
		if _, taken := h1Taken[c.ID]; taken {
			continue
		}
		return c, true
	}
	return refCand{}, false
}

func refAggregateRanks(value, neighbor []refCand, theta float64, skip func(kb.EntityID) bool) (kb.EntityID, bool) {
	scores := make(map[kb.EntityID]float64, len(value)+len(neighbor))
	addList := func(list []refCand, w float64) {
		eligible := make([]refCand, 0, len(list))
		for _, c := range list {
			if c.Sim <= 0 || skip(c.ID) {
				continue
			}
			eligible = append(eligible, c)
		}
		l := float64(len(eligible))
		for i, c := range eligible {
			scores[c.ID] += w * (l - float64(i)) / l
		}
	}
	addList(value, theta)
	addList(neighbor, 1-theta)
	if len(scores) == 0 {
		return 0, false
	}
	var best kb.EntityID
	bestScore := -1.0
	ids := make([]kb.EntityID, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if s := scores[id]; s > bestScore {
			bestScore = s
			best = id
		}
	}
	return best, true
}

func refReciprocal(ev1, ev2 *refEvidence, p eval.Pair) bool {
	return refContains(ev1.value[p.E1], ev1.neighbor[p.E1], p.E2) &&
		refContains(ev2.value[p.E2], ev2.neighbor[p.E2], p.E1)
}

func refContains(value, neighbor []refCand, id kb.EntityID) bool {
	for _, c := range value {
		if c.ID == id {
			return true
		}
	}
	for _, c := range neighbor {
		if c.ID == id {
			return true
		}
	}
	return false
}

func refDedupPairs(pairs []eval.Pair) []eval.Pair {
	seen := make(map[eval.Pair]struct{}, len(pairs))
	out := pairs[:0]
	for _, p := range pairs {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	refSortPairs(out)
	return out
}

func refSortPairs(pairs []eval.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].E1 != pairs[j].E1 {
			return pairs[i].E1 < pairs[j].E1
		}
		return pairs[i].E2 < pairs[j].E2
	})
}

func refTokenWeights(bt *blocking.Collection) []float64 {
	w := make([]float64, len(bt.Blocks))
	for i := range bt.Blocks {
		b := &bt.Blocks[i]
		w[i] = 1 / math.Log2(float64(len(b.E1))*float64(len(b.E2))+1)
	}
	return w
}

func refValueCandidates(bt *blocking.Collection, idx *blocking.Index, weights []float64, k, workers int) ([][]refCand, [][]refCand) {
	n1, n2 := bt.KBSizes()
	side1 := make([][]refCand, n1)
	side2 := make([][]refCand, n2)

	run := func(n, other int, byEnt *blocking.IndexSide, members func(bi int32) []kb.EntityID, out [][]refCand) {
		refParallelFor(n, workers, func(worker, start, end int) {
			acc := newRefAccumulator(other)
			for e := start; e < end; e++ {
				for _, bi := range byEnt.Of(kb.EntityID(e)) {
					w := weights[bi]
					for _, o := range members(bi) {
						acc.add(int32(o), w)
					}
				}
				out[e] = acc.topK(k)
				acc.reset()
			}
		})
	}
	run(n1, n2, idx.ByE1, func(bi int32) []kb.EntityID { return bt.Blocks[bi].E2 }, side1)
	run(n2, n1, idx.ByE2, func(bi int32) []kb.EntityID { return bt.Blocks[bi].E1 }, side2)
	return side1, side2
}

func refNeighborCandidates(kb1, kb2 *kb.KB, vc1, vc2 [][]refCand, n, k, workers int) ([][]refCand, [][]refCand) {
	top1 := refTopNeighborLists(kb1, n)
	top2 := refTopNeighborLists(kb2, n)
	rev1 := refReverseNeighborIndex(top1, kb1.Len())
	rev2 := refReverseNeighborIndex(top2, kb2.Len())

	out1 := make([][]refCand, kb1.Len())
	out2 := make([][]refCand, kb2.Len())

	refParallelFor(kb1.Len(), workers, func(worker, start, end int) {
		acc := newRefAccumulator(kb2.Len())
		for e := start; e < end; e++ {
			for _, nei := range top1[e] {
				for _, cand := range vc1[nei] {
					if cand.Sim <= 0 {
						continue
					}
					for _, e2 := range rev2[cand.ID] {
						acc.add(int32(e2), cand.Sim)
					}
				}
			}
			out1[e] = acc.topK(k)
			acc.reset()
		}
	})
	refParallelFor(kb2.Len(), workers, func(worker, start, end int) {
		acc := newRefAccumulator(kb1.Len())
		for e := start; e < end; e++ {
			for _, nej := range top2[e] {
				for _, cand := range vc2[nej] {
					if cand.Sim <= 0 {
						continue
					}
					for _, e1 := range rev1[cand.ID] {
						acc.add(int32(e1), cand.Sim)
					}
				}
			}
			out2[e] = acc.topK(k)
			acc.reset()
		}
	})
	return out1, out2
}

func refTopNeighborLists(k *kb.KB, n int) [][]kb.EntityID {
	out := make([][]kb.EntityID, k.Len())
	for i := 0; i < k.Len(); i++ {
		out[i] = k.TopNeighbors(kb.EntityID(i), n)
	}
	return out
}

func refReverseNeighborIndex(top [][]kb.EntityID, n int) [][]kb.EntityID {
	rev := make([][]kb.EntityID, n)
	for e, nbrs := range top {
		for _, x := range nbrs {
			rev[x] = append(rev[x], kb.EntityID(e))
		}
	}
	return rev
}

type refAccumulator struct {
	sums    []float64
	touched []int32
}

func newRefAccumulator(n int) *refAccumulator {
	return &refAccumulator{sums: make([]float64, n)}
}

func (a *refAccumulator) add(id int32, w float64) {
	if a.sums[id] == 0 {
		a.touched = append(a.touched, id)
	}
	a.sums[id] += w
}

func (a *refAccumulator) reset() {
	for _, id := range a.touched {
		a.sums[id] = 0
	}
	a.touched = a.touched[:0]
}

func (a *refAccumulator) topK(k int) []refCand {
	if len(a.touched) == 0 {
		return nil
	}
	cands := make([]refCand, 0, len(a.touched))
	for _, id := range a.touched {
		cands = append(cands, refCand{ID: kb.EntityID(id), Sim: a.sums[id]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Sim != cands[j].Sim {
			return cands[i].Sim > cands[j].Sim
		}
		return cands[i].ID < cands[j].ID
	})
	if k < len(cands) {
		cands = cands[:k:k]
	}
	return cands
}

func refParallelFor(n, workers int, work func(worker, start, end int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		work(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= n {
			break
		}
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(worker, s, e int) {
			defer wg.Done()
			work(worker, s, e)
		}(w, start, end)
	}
	wg.Wait()
}
