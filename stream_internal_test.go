package minoaner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/eval"
	"minoaner/internal/pipeline"
)

// drainIndexStream runs one resolveStream to the end and returns the
// pairs in emission order.
func drainIndexStream(t testing.TB, ctx context.Context, ix *Index, opts ...StreamOption) []ScoredPair {
	t.Helper()
	ch, err := ix.resolveStream(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out []ScoredPair
	for sp := range ch {
		out = append(out, sp)
	}
	return out
}

func sortedMatches(in []Match) []Match {
	out := append([]Match(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].URI1 != out[j].URI1 {
			return out[i].URI1 < out[j].URI1
		}
		return out[i].URI2 < out[j].URI2
	})
	return out
}

// assertStreamEqualsEpoch drains an unbudgeted stream under both
// strategies and compares each to the epoch's match set.
func assertStreamEqualsEpoch(t *testing.T, label string, ix *Index) {
	t.Helper()
	want := sortedMatches(ix.Matches())
	if len(want) == 0 {
		t.Fatalf("%s: index holds no matches; fixture too small", label)
	}
	for _, strategy := range []StreamStrategy{WeightOrdered, BlockRoundRobin} {
		pairs := drainIndexStream(t, context.Background(), ix, WithStreamStrategy(strategy))
		got := make([]Match, len(pairs))
		for i, sp := range pairs {
			got[i] = Match{URI1: sp.URI1, URI2: sp.URI2}
		}
		if !reflect.DeepEqual(sortedMatches(got), want) {
			t.Errorf("%s, strategy %d: drained stream (%d pairs) != epoch match set (%d)", label, strategy, len(got), len(want))
		}
	}
}

// TestIndexStreamEqualsEpochMatches: the stream over an epoch's base,
// drained, is the epoch's match set — however the epoch came to be
// (built, loaded, mapped, mutated, compacted and reopened) and under
// each ablation the index was built with.
func TestIndexStreamEqualsEpochMatches(t *testing.T) {
	b, err := GenerateBenchmark("Restaurant", 23, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for name, disable := range map[string]func(*Config){
		"default": func(*Config) {},
		"no-h1":   func(c *Config) { c.DisableH1 = true },
		"no-h2":   func(c *Config) { c.DisableH2 = true },
		"no-h3":   func(c *Config) { c.DisableH3 = true },
		"no-h4":   func(c *Config) { c.DisableH4 = true },
	} {
		cfg := DefaultConfig()
		disable(&cfg)
		t.Run(name, func(t *testing.T) {
			ix, err := BuildIndex(b.KB1, b.KB2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertStreamEqualsEpoch(t, "built", ix)

			var snap bytes.Buffer
			if err := SaveIndex(&snap, ix); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadIndex(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertStreamEqualsEpoch(t, "loaded", loaded)
			mapped, err := OpenIndex(snap.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			assertStreamEqualsEpoch(t, "mapped", mapped)

			mutateInternal(t, mapped, 2)
			if err := mapped.Delete(context.Background(), 2, b.KB2.URIs()[0]); err != nil {
				t.Fatal(err)
			}
			assertStreamEqualsEpoch(t, "mutated", mapped)

			mapped.Compact()
			var compacted bytes.Buffer
			if err := SaveIndex(&compacted, mapped); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenIndex(compacted.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if reopened.Epoch() != 3 {
				t.Fatalf("reopened epoch = %d, want 3", reopened.Epoch())
			}
			assertStreamEqualsEpoch(t, "compacted-reopened", reopened)
		})
	}
}

// TestCarriedViewsReseatedOnEpochKB: a mutated epoch's delta substrate
// is its mutation cache's Side1, and every neighbor view a mutation or
// Compact carries into an epoch names that epoch's KBs — after a side-2
// upsert, after a side-1 literal rewrite (which shares the previous
// lists) and after Compact (which swaps in KBs on the compacted term
// tables) — so QueryKB keeps answering as the full plan.
func TestCarriedViewsReseatedOnEpochKB(t *testing.T) {
	ctx := context.Background()
	b, err := GenerateBenchmark("Restaurant", 23, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(b.KB1, b.KB2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	uris2 := b.KB2.URIs()
	delta, err := b.DeltaKB("delta", uris2[0], uris2[len(uris2)/3], uris2[2*len(uris2)/3])
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) *pipeline.Prepared {
		t.Helper()
		e := ix.cur.Load()
		c := e.d.cache.Load()
		prep, err := e.d.prep()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil || prep != c.Side1 {
			t.Fatalf("%s: the delta substrate is not the mutation cache's Side1", label)
		}
		if prep.Neighbors.KB() != e.kb1.kb || c.Side2.Neighbors.KB() != e.kb2.kb {
			t.Fatalf("%s: a carried neighbor view names another epoch's KB", label)
		}
		fast, err := ix.QueryKB(ctx, delta)
		if err != nil {
			t.Fatal(err)
		}
		full, err := ix.QueryKBFull(ctx, delta)
		if err != nil {
			t.Fatal(err)
		}
		fast.StageTimings, full.StageTimings = nil, nil
		if len(full.Matches) == 0 || !reflect.DeepEqual(fast, full) {
			t.Fatalf("%s: QueryKB found %d matches, QueryKBFull %d (or other counts differ)", label, len(fast.Matches), len(full.Matches))
		}
		return prep
	}

	mutateInternal(t, ix, 1)
	before := check("side-2 upsert")

	// Rewrite one literal of a KB1 entity, keeping every edge.
	var lines []string
	rewritten := false
	for _, tr := range b.ds.Triples1 {
		if tr.Subject != b.ds.Triples1[0].Subject {
			continue
		}
		if tr.Object.IsLiteral() && !rewritten {
			tr.Object.Value += " rewritten"
			rewritten = true
		}
		lines = append(lines, tr.String())
	}
	rewrite, err := LoadKB("rewrite", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Upsert(ctx, 1, rewrite); err != nil {
		t.Fatal(err)
	}
	after := check("side-1 literal rewrite")
	if after.Neighbors == before.Neighbors || &after.Neighbors.TopLists()[0] != &before.Neighbors.TopLists()[0] {
		t.Fatal("side-1 literal rewrite: the view must be a new one over the previous epoch's lists")
	}

	kb1 := ix.cur.Load().kb1
	ix.Compact()
	if ix.cur.Load().kb1 == kb1 {
		t.Fatal("Compact kept KB1; the rewrite orphaned a literal, so its term table should have been compacted")
	}
	check("compacted")
}

// recallAUC is the normalised area under the recall curve of an
// emission order: the mean, over every prefix, of the share of the
// ground truth the prefix holds (1 = every match emitted first).
func recallAUC(order []eval.Pair, gt *eval.GroundTruth) float64 {
	if gt.Len() == 0 || len(order) == 0 {
		return 0
	}
	found := 0
	var area float64
	for _, p := range order {
		if gt.Contains(p.E1, p.E2) {
			found++
		}
		area += float64(found) / float64(gt.Len())
	}
	return area / float64(len(order))
}

// TestStreamPublicEqualsCoreAndFrontLoadsRecall: on every benchmark and
// under both strategies, the public channel emits core.RunStream's
// pairs in core.RunStream's order, and that order front-loads recall —
// its recall AUC beats the same pairs emitted in reverse.
func TestStreamPublicEqualsCoreAndFrontLoadsRecall(t *testing.T) {
	strategies := []struct {
		public   StreamStrategy
		internal pipeline.StreamStrategy
	}{
		{WeightOrdered, pipeline.ScheduleWeightOrdered},
		{BlockRoundRobin, pipeline.ScheduleBlockRoundRobin},
	}
	for _, name := range BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			b, err := GenerateBenchmark(name, 42, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range strategies {
				ch, err := ResolveStream(context.Background(), b.KB1, b.KB2, DefaultConfig(), WithStreamStrategy(s.public))
				if err != nil {
					t.Fatal(err)
				}
				var public []ScoredPair
				for sp := range ch {
					public = append(public, sp)
				}

				cfg := core.DefaultConfig()
				cfg.Strategy = s.internal
				var order []eval.Pair
				err = core.RunStream(context.Background(), b.ds.KB1, b.ds.KB2, cfg, pipeline.StreamBudget{},
					func(sp pipeline.ScoredPair) bool {
						order = append(order, sp.Pair)
						return true
					})
				if err != nil {
					t.Fatal(err)
				}
				if len(order) == 0 || len(order) != len(public) {
					t.Fatalf("strategy %d: core stream emitted %d pairs, public stream %d", s.public, len(order), len(public))
				}
				for i, p := range order {
					if b.ds.KB1.URI(p.E1) != public[i].URI1 || b.ds.KB2.URI(p.E2) != public[i].URI2 {
						t.Fatalf("strategy %d: core and public streams diverge at pair %d", s.public, i)
					}
				}

				reversed := slices.Clone(order)
				slices.Reverse(reversed)
				if fwd, rev := recallAUC(order, b.ds.GT), recallAUC(reversed, b.ds.GT); fwd <= rev {
					t.Errorf("strategy %d: recall AUC %.3f does not beat the reversed order's %.3f", s.public, fwd, rev)
				}
			}
		})
	}
}

// TestStreamBaseOncePerEpoch: an epoch builds its stream base on its
// first stream — to completion even when that request is already
// cancelled — every later stream and every clone of the epoch reuse it,
// and a mutation's epoch builds its own, whose stream reflects the
// mutation.
func TestStreamBaseOncePerEpoch(t *testing.T) {
	ix := internalTestIndex(t)
	if n := ix.streamBaseBuilds.Load(); n != 0 {
		t.Fatalf("fresh index reports %d base builds", n)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if got := drainIndexStream(t, cancelled, ix); len(got) != 0 {
		t.Fatalf("cancelled stream emitted %d pairs", len(got))
	}
	// The stream memo of a counted base answers without building again.
	curBase := func() *pipeline.StreamBase {
		base, _ := ix.cur.Load().d.stream()
		return base
	}
	base := curBase()
	if base == nil || ix.streamBaseBuilds.Load() != 1 {
		t.Fatalf("a cancelled first stream must still leave the base behind (builds = %d)", ix.streamBaseBuilds.Load())
	}
	assertStreamEqualsEpoch(t, "after a cancelled first stream", ix)
	drainIndexStream(t, context.Background(), ix, WithMaxPairs(1))
	if curBase() != base || ix.streamBaseBuilds.Load() != 1 {
		t.Fatalf("later streams and clones must reuse the base (builds = %d)", ix.streamBaseBuilds.Load())
	}

	before := drainIndexStream(t, context.Background(), ix)
	mutateInternal(t, ix, 1)
	if ix.cur.Load().d.streamCounted.Load() {
		t.Fatal("a mutation must publish its epoch without a stream base")
	}
	if err := ix.Delete(context.Background(), 2, before[0].URI2); err != nil {
		t.Fatal(err)
	}
	assertStreamEqualsEpoch(t, "mutated", ix)
	if curBase() == base || ix.streamBaseBuilds.Load() != 2 {
		t.Fatalf("the mutated epoch must build its own base (builds = %d)", ix.streamBaseBuilds.Load())
	}
	for _, sp := range drainIndexStream(t, context.Background(), ix) {
		if sp.URI2 == before[0].URI2 {
			t.Fatalf("stream still emits deleted entity %s", sp.URI2)
		}
	}
}

// TestConcurrentStreamsShareBase: concurrent streams with mixed budgets
// and strategies over one (initially base-less) epoch each emit exactly
// the serial sequence — the base is read-only, all run state is
// per request. Run under -race.
func TestConcurrentStreamsShareBase(t *testing.T) {
	cases := [][]StreamOption{
		nil,
		{WithMaxPairs(5)},
		{WithMaxComparisons(60)},
		{WithStreamStrategy(BlockRoundRobin)},
		{WithStreamStrategy(BlockRoundRobin), WithMaxPairs(9)},
		{WithMaxPairs(1)},
		nil,
		{WithStreamStrategy(BlockRoundRobin), WithMaxComparisons(200)},
	}
	b, err := GenerateBenchmark("Restaurant", 19, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Index {
		ix, err := BuildIndex(b.KB1, b.KB2, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	serial := build()
	want := make([][]ScoredPair, len(cases))
	for i, opts := range cases {
		want[i] = drainIndexStream(t, context.Background(), serial, opts...)
	}
	ix := build()
	got := make([][]ScoredPair, len(cases))
	var wg sync.WaitGroup
	for i, opts := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, err := ix.resolveStream(context.Background(), opts...)
			if err != nil {
				t.Error(err)
				return
			}
			for sp := range ch {
				got[i] = append(got[i], sp)
			}
		}()
	}
	wg.Wait()
	for i := range cases {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("stream %d: concurrent run emitted %d pairs, serial %d, or in another order", i, len(got[i]), len(want[i]))
		}
	}
	if n := ix.streamBaseBuilds.Load(); n != 1 {
		t.Errorf("%d concurrent streams built %d bases, want 1", len(cases), n)
	}
}

// TestStreamWarmBaseEqualsCold: a base's memo changes what a run
// computes, never what it emits. Under both strategies and every
// budget, a stream over a fresh base equals the same stream over a
// base a full drain warmed and over one a different budget half-warmed
// — so a MaxComparisons budget, which charges a run for every fill it
// reads as if it had filled it, cuts at the same point however warm
// the memo is. Without H2, no phase reads every emitting entity's value
// list before H3 reads their neighbor lists, so the charges for a
// neighbor fill's inputs show in where the budget cuts.
func TestStreamWarmBaseEqualsCold(t *testing.T) {
	b, err := GenerateBenchmark("YAGO-IMDb", 42, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(b.KB1, b.KB2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := ix.cur.Load()
	fresh := func() *pipeline.StreamBase {
		base, err := e.buildStreamBase()
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	run := func(base *pipeline.StreamBase, s pipeline.StreamStrategy, cfg pipeline.StreamConfig) []pipeline.ScoredPair {
		var out []pipeline.ScoredPair
		err := base.Run(context.Background(), s, cfg, func(sp pipeline.ScoredPair) bool {
			out = append(out, sp)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	q := ix.NumMatches() / 4
	budgets := []pipeline.StreamBudget{
		{MaxPairs: 1}, {MaxPairs: 5}, {MaxPairs: q},
		{MaxComparisons: 40}, {MaxComparisons: 200}, {MaxComparisons: 10_000},
		{},
	}
	for _, noH2 := range []bool{false, true} {
		for _, s := range []pipeline.StreamStrategy{pipeline.ScheduleWeightOrdered, pipeline.ScheduleBlockRoundRobin} {
			drained := fresh()
			full := run(drained, s, pipeline.StreamConfig{DisableH2: noH2})
			for i, budget := range budgets {
				label := fmt.Sprintf("no-h2 %v, strategy %d, budget %+v", noH2, s, budget)
				cfg := pipeline.StreamConfig{Budget: budget, DisableH2: noH2}
				cold := run(fresh(), s, cfg)
				if len(cold) == 0 || (budget != pipeline.StreamBudget{} && len(cold) >= len(full)) {
					t.Fatalf("%s: cold stream emitted %d of %d pairs; the budget must cut the fixture's stream", label, len(cold), len(full))
				}
				if warm := run(drained, s, cfg); !reflect.DeepEqual(warm, cold) {
					t.Errorf("%s: after a full drain the stream emitted %d pairs, over a fresh base %d, or others", label, len(warm), len(cold))
				}
				half, other := fresh(), budgets[(i+1)%len(budgets)]
				run(half, s, pipeline.StreamConfig{Budget: other, DisableH2: noH2})
				if warm := run(half, s, cfg); !reflect.DeepEqual(warm, cold) {
					t.Errorf("%s: after a %+v stream the stream emitted %d pairs, over a fresh base %d, or others", label, other, len(warm), len(cold))
				}
			}
		}
	}
}

// streamFixture builds a YAGO-IMDb index whose stream base is warm.
func streamFixture(tb testing.TB, scale float64) (*Benchmark, *Index) {
	tb.Helper()
	b, err := GenerateBenchmark("YAGO-IMDb", 42, scale)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := BuildIndex(b.KB1, b.KB2, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if got := drainIndexStream(tb, context.Background(), ix, WithMaxPairs(1)); len(got) != 1 {
		tb.Fatalf("warm-up stream emitted %d pairs", len(got))
	}
	return b, ix
}

// streamAlloc returns the fewest bytes any of five streams with opts
// allocated on ix (other goroutines of the test binary only add).
func streamAlloc(t *testing.T, ix *Index, opts ...StreamOption) uint64 {
	t.Helper()
	best := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		drainIndexStream(t, context.Background(), ix, opts...)
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestStreamSecondRequestIsCheap guards the point of the stream base: a
// one-pair stream on a warmed epoch allocates the per-run state (two
// accumulators and a few maps), not blocks, index, weights and a
// schedule — megabytes on this fixture before the base existed.
func TestStreamSecondRequestIsCheap(t *testing.T) {
	_, ix := streamFixture(t, 0.5)
	if best, limit := streamAlloc(t, ix, WithMaxPairs(1)), uint64(512<<10); best > limit {
		t.Errorf("a one-pair stream on a warmed epoch allocated %d bytes, want <= %d", best, limit)
	}
}

// TestStreamRepeatIsCheap guards the point of the base's memo: a
// quarter stream repeated on a warmed epoch reads the candidate lists
// the first one filled, so it allocates its per-run state only — not a
// list, a map entry and a top-K heap per entity it visits, over a
// megabyte on this fixture before the memo existed.
func TestStreamRepeatIsCheap(t *testing.T) {
	_, ix := streamFixture(t, 0.5)
	quarter := WithMaxPairs(ix.NumMatches() / 4)
	drainIndexStream(t, context.Background(), ix, quarter)
	if best, limit := streamAlloc(t, ix, quarter), uint64(256<<10); best > limit {
		t.Errorf("a repeated quarter stream on a warmed epoch allocated %d bytes, want <= %d", best, limit)
	}
}

// BenchmarkStreamFirst times a one-pair stream on a warmed epoch: the
// cost between a /resolve/stream request and its first line.
func BenchmarkStreamFirst(b *testing.B) {
	_, ix := streamFixture(b, 1)
	b.ReportAllocs()
	for b.Loop() {
		drainIndexStream(b, context.Background(), ix, WithMaxPairs(1))
	}
}

// BenchmarkStreamQuarter times a quarter stream (a quarter of the
// epoch's matches, as the stream-anytime workload requests) repeated on
// a warmed epoch: what a /resolve/stream?max_pairs= request costs once
// the base's memo holds the candidate lists it reads.
func BenchmarkStreamQuarter(b *testing.B) {
	_, ix := streamFixture(b, 1)
	quarter := WithMaxPairs(ix.NumMatches() / 4)
	drainIndexStream(b, context.Background(), ix, quarter)
	b.ReportAllocs()
	for b.Loop() {
		drainIndexStream(b, context.Background(), ix, quarter)
	}
}

// BenchmarkStreamQuarterLive times the quarter stream under a comparison
// budget too large to cut it: a budget no recording answers, so every
// run decides H1–H3 over the warm memo — the engine's cost, which the
// replayed BenchmarkStreamQuarter no longer shows.
func BenchmarkStreamQuarterLive(b *testing.B) {
	_, ix := streamFixture(b, 1)
	opts := []StreamOption{WithMaxPairs(ix.NumMatches() / 4), WithMaxComparisons(1 << 62)}
	drainIndexStream(b, context.Background(), ix, opts...)
	b.ReportAllocs()
	for b.Loop() {
		drainIndexStream(b, context.Background(), ix, opts...)
	}
}

// FuzzStreamRecord: appendStreamRecord writes, byte for byte, what
// json.Encoder writes for the same record — on its fast path and on
// every string (invalid UTF-8, control bytes, HTML metacharacters,
// U+2028/U+2029) or finite score that leaves it.
func FuzzStreamRecord(f *testing.F) {
	f.Add("http://a/e1", "http://b/e2", "name", 3.25)
	f.Add("http://a/<x", "a>b", "a&b", 0.0)
	f.Add("\"", "\\", "\x00\x1f\x7f", 0.5)
	f.Add("\xff\xfe", "line\u2028sep\u2029", "rank", 5e-324)
	f.Add("\u00e9", "", "h9", 1e-7)
	f.Add("http://a/e", "http://b/e", "rank", 1e21)
	f.Add("http://a/e", "http://b/e", "rank", -2.000001)
	f.Add("http://a/e", "http://b/e", "rank", 1e-6)
	f.Add("http://a/e", "http://b/e", "rank", 9.999999999999999e20)
	f.Add("http://a/e", "http://b/e", "rank", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, uri1, uri2, heuristic string, score float64) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Skip("stream scores are finite")
		}
		r := streamPairJSON{URI1: uri1, URI2: uri2, Score: score, Heuristic: heuristic}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		prefix := []byte("kept")
		if got := appendStreamRecord(prefix, r); !bytes.Equal(got[len(prefix):], want.Bytes()) || string(got[:len(prefix)]) != "kept" {
			t.Errorf("appendStreamRecord wrote %q, json.Encoder %q", got[len(prefix):], want.Bytes())
		}
	})
}
