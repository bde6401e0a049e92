package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
)

func TestAggregateRanks(t *testing.T) {
	value := []Cand{{ID: 10, Sim: 0.9}, {ID: 20, Sim: 0.5}}
	neighbor := []Cand{{ID: 20, Sim: 3.0}, {ID: 30, Sim: 1.0}}
	noskip := func(kb.EntityID) bool { return false }
	// θ=0.6: 10 → 0.6*1.0 = 0.6; 20 → 0.6*0.5 + 0.4*1.0 = 0.7; 30 → 0.4*0.5=0.2.
	best, ok := new(rankScratch).aggregateRanks(value, neighbor, 0.6, noskip)
	if !ok || best != 20 {
		t.Errorf("best = %d, want 20", best)
	}
	// θ high → value list dominates.
	best, _ = new(rankScratch).aggregateRanks(value, neighbor, 0.9, noskip)
	if best != 10 {
		t.Errorf("best = %d, want 10 at θ=0.9", best)
	}
	// Empty evidence.
	if _, ok := new(rankScratch).aggregateRanks(nil, nil, 0.6, noskip); ok {
		t.Error("aggregateRanks on empty lists returned ok")
	}
	// Skip filter removes the winner.
	best, ok = new(rankScratch).aggregateRanks(value, neighbor, 0.6, func(id kb.EntityID) bool { return id == 20 })
	if !ok || best != 10 {
		t.Errorf("best = %d, want 10 after skipping 20", best)
	}
}

func TestAggregateRanksZeroSims(t *testing.T) {
	value := []Cand{{ID: 1, Sim: 0}}
	if _, ok := new(rankScratch).aggregateRanks(value, nil, 0.6, func(kb.EntityID) bool { return false }); ok {
		t.Error("zero-similarity candidates must be ignored")
	}
}

func TestThetaExtremesChangeH3(t *testing.T) {
	value := []Cand{{ID: 1, Sim: 5}, {ID: 2, Sim: 4}}
	neighbor := []Cand{{ID: 2, Sim: 9}, {ID: 1, Sim: 1}}
	noskip := func(kb.EntityID) bool { return false }
	lowTheta, _ := new(rankScratch).aggregateRanks(value, neighbor, 0.01, noskip)
	highTheta, _ := new(rankScratch).aggregateRanks(value, neighbor, 0.99, noskip)
	if lowTheta != 2 {
		t.Errorf("θ→0 should follow neighbors: got %d", lowTheta)
	}
	if highTheta != 1 {
		t.Errorf("θ→1 should follow values: got %d", highTheta)
	}
}

// topKOracle is the reference the selection kernel is checked against:
// copy the whole touched set, order it fully, cut at k. It exists only
// in this file.
func topKOracle(a *accumulator, k int) []Cand {
	cands := make([]Cand, 0, len(a.touched))
	for _, id := range a.touched {
		cands = append(cands, Cand{ID: kb.EntityID(id), Sim: a.sums[id]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Sim != cands[j].Sim {
			return cands[i].Sim > cands[j].Sim
		}
		return cands[i].ID < cands[j].ID
	})
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands
}

// checkTopK compares topK with the oracle element for element and
// checks the retention contract: a result owns exactly its elements.
func checkTopK(t *testing.T, a *accumulator, k int) {
	t.Helper()
	got, want := a.topK(k), topKOracle(a, k)
	if len(a.touched) == 0 && got != nil {
		t.Fatalf("topK(%d) of an empty accumulator = %v, want nil", k, got)
	}
	if len(got) != len(want) {
		t.Fatalf("topK(%d) over %d touched: %d candidates, want %d", k, len(a.touched), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topK(%d) over %d touched: position %d = %v, want %v", k, len(a.touched), i, got[i], want[i])
		}
	}
	if cap(got) != len(got) {
		t.Fatalf("topK(%d) over %d touched: cap %d != len %d", k, len(a.touched), cap(got), len(got))
	}
}

func TestAccumulatorTopK(t *testing.T) {
	const n = 64
	type contrib struct {
		id int32
		w  float64
	}
	spread := func(m int, w func(i int) float64) []contrib {
		var cs []contrib
		for i := 0; i < m; i++ {
			cs = append(cs, contrib{int32(i*37) % n, w(i)}) // 37 is coprime to n: touched order is not ID order
		}
		return cs
	}
	distinct := func(i int) float64 { return float64(1 + i%7) }
	rows := []struct {
		name     string
		contribs []contrib
		k        int
		want     []Cand // nil: compare with the oracle only
	}{
		{name: "empty", k: 3},
		{name: "ties by ascending ID", k: 2,
			contribs: []contrib{{3, 1.0}, {5, 2.0}, {3, 0.5}, {7, 2.0}},
			want:     []Cand{{ID: 5, Sim: 2.0}, {ID: 7, Sim: 2.0}}},
		{name: "k == 1", k: 1, contribs: spread(40, distinct)},
		{name: "k == n", k: 40, contribs: spread(40, distinct)},
		{name: "k > n", k: 41, contribs: spread(40, distinct)},
		{name: "k == n - 1", k: 39, contribs: spread(40, distinct)},
		{name: "all sums equal", k: 15, contribs: spread(n, func(int) float64 { return 0.5 })},
		{name: "single", k: 5, contribs: []contrib{{1, 1.5}}, want: []Cand{{ID: 1, Sim: 1.5}}},
	}
	// One accumulator serves every row, so each row also checks reuse
	// after reset.
	acc := newAccumulator(n)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, c := range row.contribs {
				acc.add(c.id, c.w)
			}
			checkTopK(t, acc, row.k)
			if got := acc.topK(row.k); row.want != nil && !reflect.DeepEqual(got, row.want) {
				t.Errorf("topK(%d) = %v, want %v", row.k, got, row.want)
			}
			acc.reset()
			if got := acc.topK(row.k); got != nil {
				t.Errorf("after reset topK = %v, want nil", got)
			}
		})
	}
}

// tieDenseFill loads acc from raw bytes so that few distinct sums are
// spread over many IDs in scrambled order — the regime where only the
// ID tie-break separates candidates. Byte pairs (a, b) add one of four
// dyadic weights (exact in floating point) to one of 512 IDs.
func tieDenseFill(acc *accumulator, data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		acc.add(int32(a)|int32(b>>7)<<8, float64(1+b&3)*0.25)
	}
}

func TestTopKMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	acc := newAccumulator(512)
	for round := 0; round < 400; round++ {
		data := make([]byte, 2*rng.Intn(700))
		rng.Read(data)
		tieDenseFill(acc, data)
		for _, k := range []int{1, 2, 15, 16, 64, 511, 512, 600} {
			checkTopK(t, acc, k)
		}
		acc.reset()
	}
}

func FuzzTopK(f *testing.F) {
	f.Add([]byte{}, uint8(15))
	f.Add([]byte{7, 1, 7, 1, 9, 2, 200, 129, 3, 0}, uint8(2))
	f.Add([]byte("all the same weight class: ties, ties, ties, ties, ties"), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		acc := newAccumulator(512)
		tieDenseFill(acc, data)
		checkTopK(t, acc, int(k))
	})
}

// TestCandidateListsOwnExactlyTheirElements is the retention guard: no
// candidate list may pin a backing array larger than itself, whatever
// the size of the co-occurrence set it was selected from.
func TestCandidateListsOwnExactlyTheirElements(t *testing.T) {
	ds, err := datagen.Restaurant(datagen.Options{Seed: 42, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	st := runPlan(t, Until(DefaultPlan(), StageNeighborCandidates), NewState(ds.KB1, ds.KB2, p))
	nonEmpty := 0
	for _, side := range []struct {
		name  string
		lists [][]Cand
	}{
		{"value/1", st.ValueCands1}, {"value/2", st.ValueCands2},
		{"neighbor/1", st.NeighborCands1}, {"neighbor/2", st.NeighborCands2},
	} {
		for e, list := range side.lists {
			if cap(list) != len(list) || len(list) > p.K {
				t.Fatalf("%s candidates of entity %d: len %d cap %d, want cap == len <= %d",
					side.name, e, len(list), cap(list), p.K)
			}
			if len(list) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no candidate list was produced")
	}
}

// shuffledAccumulator touches n IDs in random order with distinct
// random sums (seed 42).
func shuffledAccumulator(n int) *accumulator {
	rng := rand.New(rand.NewSource(42))
	acc := newAccumulator(n)
	for _, id := range rng.Perm(n) {
		acc.add(int32(id), 1+rng.Float64())
	}
	return acc
}

// TestTopKAllocatesOnlyItsResult: selecting from a large touched set
// allocates the result list and nothing else — in particular nothing
// proportional to the touched set, which the cap check above cannot
// see (a three-index slice of a full-size copy also has cap == len).
func TestTopKAllocatesOnlyItsResult(t *testing.T) {
	const touched, k, runs = 8192, 15, 100
	acc := shuffledAccumulator(touched)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if got := acc.topK(k); len(got) != k {
			t.Fatalf("topK(%d) returned %d candidates", k, len(got))
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / runs; allocs > 1 {
		t.Errorf("%d allocations per topK, want at most 1", allocs)
	}
	if bytes, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(k*16); bytes > limit {
		t.Errorf("%d bytes allocated per topK over %d touched, want at most %d", bytes, touched, limit)
	}
}

func TestTokenWeights(t *testing.T) {
	c := blocking.NewCollection(4, 4)
	c.Blocks = append(c.Blocks,
		blocking.Block{Key: "rare", E1: []kb.EntityID{0}, E2: []kb.EntityID{0}},
		blocking.Block{Key: "mid", E1: []kb.EntityID{0, 1}, E2: []kb.EntityID{0, 1}},
	)
	w := tokenWeights(c)
	if math.Abs(w[0]-1) > 1e-12 {
		t.Errorf("rare weight = %f, want 1", w[0])
	}
	if want := 1 / math.Log2(5); math.Abs(w[1]-want) > 1e-12 {
		t.Errorf("mid weight = %f, want %f", w[1], want)
	}
	if w[0] <= w[1] {
		t.Error("rarer token must weigh more")
	}
}

// TestTokenWeightsStrictlyPositive pins the invariant accumulator.add
// leans on: a zero contribution would be mistaken for "untouched". The
// weight is smallest for the largest surviving block, one at the purge
// ceiling on both sides.
func TestTokenWeightsStrictlyPositive(t *testing.T) {
	const n = 200_000
	raw := blocking.NewCollection(n, n)
	purged, res := blocking.Purge(raw, blocking.DefaultPurgeConfig())
	ceiling := func(cut int) []kb.EntityID {
		ids := make([]kb.EntityID, cut)
		for i := range ids {
			ids[i] = kb.EntityID(i)
		}
		return ids
	}
	purged.Blocks = append(purged.Blocks,
		blocking.Block{Key: "singleton", E1: []kb.EntityID{0}, E2: []kb.EntityID{0}},
		blocking.Block{Key: "ceiling", E1: ceiling(res.Cutoff1), E2: ceiling(res.Cutoff2)},
	)
	for i, w := range tokenWeights(purged) {
		if !(w > 0) || math.IsInf(w, 0) {
			t.Errorf("block %q: weight %v, want finite and > 0", purged.Blocks[i].Key, w)
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3, 7, 100} {
		n := 57
		covered := make([]int32, n)
		err := parallelFor(ctx, n, workers, func(worker, start, end int) error {
			for i := start; i < end; i++ {
				covered[i]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
	err := parallelFor(ctx, 0, 4, func(worker, start, end int) error {
		t.Error("work called for n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelForPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	err := parallelFor(context.Background(), 40, 4, func(worker, start, end int) error {
		if start == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = parallelFor(ctx, 40, 4, func(worker, start, end int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v", err)
	}
}

// The layer ladder of the candidate stages (ROADMAP measurement item
// (a)): ordinary benchmarks, so -cpuprofile and -benchmem work on each.

func BenchmarkTopK(b *testing.B) {
	for _, touched := range []int{16, 512, 8192} {
		b.Run(fmt.Sprintf("touched=%d", touched), func(b *testing.B) {
			acc := shuffledAccumulator(touched)
			b.ReportAllocs()
			for b.Loop() {
				acc.topK(15)
			}
		})
	}
}

// benchState runs YAGO-IMDb x1 (seed 42) through the plan up to and
// including the named stage, outside the timer.
func benchState(b *testing.B, through string) *State {
	b.Helper()
	ds, err := datagen.Movies(datagen.Options{Seed: 42, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	return runPlan(b, Until(DefaultPlan(), through), NewState(ds.KB1, ds.KB2, testParams()))
}

func BenchmarkValueCandidates(b *testing.B) {
	st := benchState(b, StageTokenWeighting)
	stage := ValueCandidates()
	b.ReportAllocs()
	for b.Loop() {
		if err := stage.Run(context.Background(), st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborCandidates(b *testing.B) {
	st := benchState(b, StageValueCandidates)
	stage := NeighborCandidates()
	b.ReportAllocs()
	for b.Loop() {
		if err := stage.Run(context.Background(), st); err != nil {
			b.Fatal(err)
		}
	}
}
