package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"minoaner/internal/datagen"
	"minoaner/internal/eval"
)

// drainStream runs an unbudgeted stream and returns the emitted pairs
// in emission order.
func drainStream(t testing.TB, st *State, cfg StreamConfig) []ScoredPair {
	t.Helper()
	var out []ScoredPair
	err := RunStream(context.Background(), st, cfg, func(sp ScoredPair) bool {
		out = append(out, sp)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// batchMatches runs the default batch plan with the given stages
// dropped and returns the match set.
func batchMatches(t testing.TB, st *State, drop ...string) []eval.Pair {
	t.Helper()
	plan := DefaultPlan()
	for _, name := range drop {
		plan = Drop(plan, name)
	}
	runPlan(t, plan, st)
	return st.Matches
}

func sortedStreamPairs(stream []ScoredPair) []eval.Pair {
	out := make([]eval.Pair, len(stream))
	for i, sp := range stream {
		out[i] = sp.Pair
	}
	eval.SortPairs(out)
	return out
}

func TestStreamDrainMatchesBatchBothStrategies(t *testing.T) {
	kb1, kb2 := testKBs(t, 150)
	want := batchMatches(t, NewState(kb1, kb2, testParams()))
	if len(want) == 0 {
		t.Fatal("batch run produced no matches; the fixture is too small")
	}
	for _, strategy := range []StreamStrategy{ScheduleWeightOrdered, ScheduleBlockRoundRobin} {
		p := testParams()
		p.Strategy = strategy
		got := drainStream(t, NewState(kb1, kb2, p), StreamConfig{})
		if !reflect.DeepEqual(sortedStreamPairs(got), want) {
			t.Errorf("strategy %d: drained stream (%d pairs) differs from batch matches (%d)",
				strategy, len(got), len(want))
		}
	}
}

func TestStreamDrainMatchesBatchUnderAblations(t *testing.T) {
	kb1, kb2 := testKBs(t, 150)
	cases := []struct {
		name string
		cfg  StreamConfig
		drop []string
	}{
		{"no-h1", StreamConfig{DisableH1: true}, []string{StageNameMatching}},
		{"no-h2", StreamConfig{DisableH2: true}, []string{StageValueMatching}},
		{"no-h3", StreamConfig{DisableH3: true}, []string{StageRankAggregation}},
		{"no-h4", StreamConfig{DisableH4: true}, []string{StageReciprocity}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := batchMatches(t, NewState(kb1, kb2, testParams()), tc.drop...)
			got := drainStream(t, NewState(kb1, kb2, testParams()), tc.cfg)
			if !reflect.DeepEqual(sortedStreamPairs(got), want) {
				t.Errorf("drained stream (%d pairs) differs from batch matches (%d)", len(got), len(want))
			}
		})
	}
}

func TestStreamOrderDeterministicAndNonIncreasing(t *testing.T) {
	kb1, kb2 := testKBs(t, 150)
	for _, strategy := range []StreamStrategy{ScheduleWeightOrdered, ScheduleBlockRoundRobin} {
		p := testParams()
		p.Strategy = strategy
		base := drainStream(t, NewState(kb1, kb2, p), StreamConfig{})
		for i := 1; i < len(base); i++ {
			if base[i].Score > base[i-1].Score {
				t.Fatalf("strategy %d: score increased at %d: %v after %v", strategy, i, base[i], base[i-1])
			}
		}
		for rep := 0; rep < 3; rep++ {
			again := drainStream(t, NewState(kb1, kb2, p), StreamConfig{})
			if !reflect.DeepEqual(again, base) {
				t.Fatalf("strategy %d: emission order changed across runs", strategy)
			}
		}
	}
}

func TestStreamSchedulesArePermutations(t *testing.T) {
	kb1, kb2 := testKBs(t, 120)
	ev, err := NewStreamBase(context.Background(), NewState(kb1, kb2, testParams()))
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []StreamStrategy{ScheduleWeightOrdered, ScheduleBlockRoundRobin} {
		sched := ev.schedules[strategy]()
		if len(sched) != ev.em.sizeA {
			t.Fatalf("strategy %d: schedule covers %d of %d entities", strategy, len(sched), ev.em.sizeA)
		}
		seen := make([]bool, ev.em.sizeA)
		for _, e := range sched {
			if seen[e] {
				t.Fatalf("strategy %d: entity %d scheduled twice", strategy, e)
			}
			seen[e] = true
		}
	}
}

func TestStreamMaxPairsIsQualityOrderedPrefix(t *testing.T) {
	kb1, kb2 := testKBs(t, 150)
	full := drainStream(t, NewState(kb1, kb2, testParams()), StreamConfig{})
	if len(full) < 4 {
		t.Fatalf("need at least 4 matches, got %d", len(full))
	}
	k := len(full) / 2
	got := drainStream(t, NewState(kb1, kb2, testParams()),
		StreamConfig{Budget: StreamBudget{MaxPairs: k}})
	if !reflect.DeepEqual(got, full[:k]) {
		t.Errorf("MaxPairs=%d did not yield the stream's first %d pairs", k, k)
	}
}

func TestStreamMaxComparisonsDeterministicPrefix(t *testing.T) {
	kb1, kb2 := testKBs(t, 150)
	full := drainStream(t, NewState(kb1, kb2, testParams()), StreamConfig{})
	cfg := StreamConfig{Budget: StreamBudget{MaxComparisons: 40}}
	got := drainStream(t, NewState(kb1, kb2, testParams()), cfg)
	if len(got) >= len(full) {
		t.Fatalf("comparison budget did not truncate the stream (%d pairs of %d)", len(got), len(full))
	}
	if !reflect.DeepEqual(got, full[:len(got)]) {
		t.Error("budgeted stream is not a prefix of the unbudgeted stream")
	}
	again := drainStream(t, NewState(kb1, kb2, testParams()), cfg)
	if !reflect.DeepEqual(again, got) {
		t.Error("comparison budget truncated at a different point across runs")
	}
}

func TestStreamEmitFalseStopsCleanly(t *testing.T) {
	kb1, kb2 := testKBs(t, 120)
	count := 0
	err := RunStream(context.Background(), NewState(kb1, kb2, testParams()), StreamConfig{},
		func(ScoredPair) bool {
			count++
			return count < 2
		})
	if err != nil {
		t.Fatalf("emit returning false should stop with nil error, got %v", err)
	}
	if count != 2 {
		t.Fatalf("expected exactly 2 emit calls, got %d", count)
	}
}

func TestStreamContextCancellation(t *testing.T) {
	kb1, kb2 := testKBs(t, 120)
	ctx, cancel := context.WithCancel(context.Background())
	count := 0
	err := RunStream(ctx, NewState(kb1, kb2, testParams()), StreamConfig{},
		func(ScoredPair) bool {
			count++
			cancel()
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if count != 1 {
		t.Fatalf("expected the run to stop after the cancelling emit, got %d emits", count)
	}
}

// blind returns a base with b's memo and a snapshot of its recordings
// but none of its evidence: a run that decides anything — reads the
// token index, the blocks or a schedule — panics on it.
func blind(b *StreamBase) *StreamBase {
	c := &StreamBase{st: &State{}, em: b.em, memo: b.memo}
	for s := range c.orders {
		c.orders[s].Store(b.orders[s].Load())
	}
	return c
}

// tryRun runs one stream on base and reports whether it completed: a
// run that goes live on a blind base panics, which ends it here.
func tryRun(ctx context.Context, base *StreamBase, s StreamStrategy, cfg StreamConfig) (out []ScoredPair, completed bool, err error) {
	defer func() {
		if recover() != nil {
			completed = false
		}
	}()
	err = base.Run(ctx, s, cfg, func(sp ScoredPair) bool {
		out = append(out, sp)
		return true
	})
	return out, true, err
}

// TestStreamReplay: a run the base's recording covers — no ablation,
// no comparison budget, a pair budget the recording reaches or a
// complete recording — replays it without deciding anything, and every
// other run decides live; both emit exactly what a fresh base emits.
// Concurrent runs race to publish their recordings (run under -race).
func TestStreamReplay(t *testing.T) {
	ds, err := datagen.Movies(datagen.Options{Seed: 42, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fresh := func() *StreamBase {
		base, err := NewStreamBase(ctx, NewState(ds.KB1, ds.KB2, testParams()))
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	run := func(base *StreamBase, s StreamStrategy, cfg StreamConfig) []ScoredPair {
		out, ok, err := tryRun(ctx, base, s, cfg)
		if err != nil || !ok {
			t.Fatalf("strategy %d, %+v: err %v, completed %v", s, cfg, err, ok)
		}
		return out
	}
	for _, s := range []StreamStrategy{ScheduleWeightOrdered, ScheduleBlockRoundRobin} {
		drain := run(fresh(), s, StreamConfig{})
		n, q := len(drain), len(drain)/4
		heuristics := map[uint8]bool{}
		for _, sp := range drain {
			heuristics[sp.Heuristic] = true
		}
		if q < 2 || len(heuristics) < 3 {
			t.Fatalf("strategy %d: the fixture's %d pairs must span H1-H3", s, n)
		}
		base := fresh()
		if got := run(base, s, StreamConfig{Budget: StreamBudget{MaxPairs: q}}); !reflect.DeepEqual(got, drain[:q]) {
			t.Fatalf("strategy %d: the recording quarter emitted %d pairs, want the drain's first %d", s, len(got), q)
		}

		// A run the quarter covers replays it: a blind base answers.
		quarter := blind(base)
		deadline, cancel := context.WithTimeout(ctx, time.Hour)
		for _, tc := range []struct {
			name string
			ctx  context.Context
			k    int
		}{{"quarter", ctx, q}, {"one pair", ctx, 1}, {"live deadline", deadline, q}} {
			got, ok, err := tryRun(tc.ctx, quarter, s, StreamConfig{Budget: StreamBudget{MaxPairs: tc.k}})
			if !ok || err != nil || !reflect.DeepEqual(got, drain[:tc.k]) {
				t.Errorf("strategy %d, %s: replay emitted %d pairs (err %v, completed %v), want the drain's first %d", s, tc.name, len(got), err, ok, tc.k)
			}
		}
		cancel()
		stop, cancel := context.WithCancel(ctx)
		count := 0
		err := quarter.Run(stop, s, StreamConfig{Budget: StreamBudget{MaxPairs: q}}, func(ScoredPair) bool {
			count++
			cancel()
			return true
		})
		if !errors.Is(err, context.Canceled) || count != 1 {
			t.Errorf("strategy %d: a replay cancelled from emit returned %v after %d pairs, want context.Canceled after 1", s, err, count)
		}

		// A run the quarter does not cover decides live, and equals cold.
		// The ablated runs follow a full live one, so they reach H3 on
		// the pooled claim flags it used.
		live := []StreamConfig{
			{Budget: StreamBudget{MaxPairs: q + 1}},
			{Budget: StreamBudget{MaxComparisons: 200}},
			{Budget: StreamBudget{MaxComparisons: 1 << 40}},
			{DisableH1: true},
			{DisableH2: true},
			{DisableH3: true},
			{DisableH4: true},
			{Budget: StreamBudget{MaxPairs: 1}, DisableH2: true},
		}
		for _, cfg := range live {
			if _, ok, _ := tryRun(ctx, quarter, s, cfg); ok {
				t.Errorf("strategy %d, %+v: a run the quarter does not cover replayed", s, cfg)
			}
			if got, want := run(base, s, cfg), run(fresh(), s, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("strategy %d, %+v: the recorded base emitted %d pairs, a fresh one %d, or others", s, cfg, len(got), len(want))
			}
		}

		// The live run under an uncutting comparison budget completed the
		// recording: every plain run with no comparison budget replays it.
		complete := blind(base)
		for _, k := range []int{0, 1, n, n + 5} {
			want := drain[:min(k, n)]
			if k == 0 {
				want = drain
			}
			got, ok, err := tryRun(ctx, complete, s, StreamConfig{Budget: StreamBudget{MaxPairs: k}})
			if !ok || err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("strategy %d, MaxPairs %d after a drain: replay emitted %d pairs (err %v, completed %v), want %d", s, k, len(got), err, ok, len(want))
			}
		}

		// Concurrent runs on a fresh base each emit their prefix, and
		// the longest recording wins.
		racing := fresh()
		var wg sync.WaitGroup
		for _, k := range []int{1, q, 2 * q, 0, 5, q, n - 1} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				want := drain
				if k > 0 {
					want = drain[:k]
				}
				if got, ok, err := tryRun(ctx, racing, s, StreamConfig{Budget: StreamBudget{MaxPairs: k}}); !ok || err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("strategy %d, concurrent MaxPairs %d: emitted %d pairs (err %v), want %d", s, k, len(got), err, len(want))
				}
			}()
		}
		wg.Wait()
		if rec := racing.orders[s].Load(); !rec.complete || !reflect.DeepEqual(rec.pairs, drain) {
			t.Errorf("strategy %d: after concurrent runs the recording holds %d pairs (complete %v), want the %d-pair drain", s, len(rec.pairs), rec.complete, n)
		}
	}
}
