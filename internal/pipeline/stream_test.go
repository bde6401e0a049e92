package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

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
