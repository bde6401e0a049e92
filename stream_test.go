package minoaner_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"minoaner"
)

// drainResolveStream drains one ResolveStream run and returns the pairs
// in emission order.
func drainResolveStream(t *testing.T, b *minoaner.Benchmark, opts ...minoaner.StreamOption) []minoaner.ScoredPair {
	t.Helper()
	ch, err := minoaner.ResolveStream(context.Background(), b.KB1, b.KB2, minoaner.DefaultConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out []minoaner.ScoredPair
	for sp := range ch {
		out = append(out, sp)
	}
	return out
}

// streamMatchSet projects a stream onto its sorted URI-pair set.
func streamMatchSet(pairs []minoaner.ScoredPair) []minoaner.Match {
	ms := make([]minoaner.Match, len(pairs))
	for i, sp := range pairs {
		ms[i] = minoaner.Match{URI1: sp.URI1, URI2: sp.URI2}
	}
	return sortMatches(ms)
}

// TestResolveStreamDrainEqualsResolve is the anytime acceptance
// property on the public API: an unbudgeted stream, drained, is exactly
// the batch match set — under both schedulers — and the emitted scores
// never increase.
func TestResolveStreamDrainEqualsResolve(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			b, err := minoaner.GenerateBenchmark(name, 7, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := minoaner.Resolve(b.KB1, b.KB2, minoaner.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) == 0 {
				t.Fatal("batch run produced no matches; fixture too small")
			}
			want := sortMatches(res.Matches)
			for _, s := range []minoaner.StreamStrategy{minoaner.WeightOrdered, minoaner.BlockRoundRobin} {
				got := drainResolveStream(t, b, minoaner.WithStreamStrategy(s))
				for i := 1; i < len(got); i++ {
					if got[i].Score > got[i-1].Score {
						t.Fatalf("strategy %d: score increased at pair %d", s, i)
					}
				}
				if !reflect.DeepEqual(streamMatchSet(got), want) {
					t.Errorf("strategy %d: drained stream (%d pairs) != batch matches (%d)",
						s, len(got), len(want))
				}
			}
		})
	}
}

// TestResolveStreamDeterministicOrder: the emission order (not just the
// set) is reproducible run over run.
func TestResolveStreamDeterministicOrder(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base := drainResolveStream(t, b)
	for rep := 0; rep < 3; rep++ {
		if again := drainResolveStream(t, b); !reflect.DeepEqual(again, base) {
			t.Fatalf("rep %d: emission order changed across runs", rep)
		}
	}
}

// TestResolveStreamMaxPairsPrefix: on every benchmark and under both
// strategies, a MaxPairs budget yields exactly the first n pairs of the
// unbudgeted stream, field for field, and then closes the channel. A
// budget only chooses where the one emission order stops — what lets
// an index serve a budgeted stream from an order it recorded.
func TestResolveStreamMaxPairsPrefix(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		b, err := minoaner.GenerateBenchmark(name, 42, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []minoaner.StreamStrategy{minoaner.WeightOrdered, minoaner.BlockRoundRobin} {
			full := drainResolveStream(t, b, minoaner.WithStreamStrategy(s))
			n := len(full)
			if n < 8 {
				t.Fatalf("%s: need at least 8 matches, got %d", name, n)
			}
			for _, k := range []int{1, 2, 5, n / 4, n / 2, n - 1} {
				got := drainResolveStream(t, b, minoaner.WithStreamStrategy(s), minoaner.WithMaxPairs(k))
				if !reflect.DeepEqual(got, full[:k]) {
					t.Errorf("%s, strategy %d: MaxPairs=%d did not yield the first %d of the %d unbudgeted pairs", name, s, k, k, n)
				}
			}
		}
	}
}

// TestResolveStreamConfigErrorIsSynchronous: a bad configuration is
// reported by the call itself, before any goroutine or channel exists.
func TestResolveStreamConfigErrorIsSynchronous(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	bad := minoaner.DefaultConfig()
	bad.Theta = 2 // out of (0,1)
	if _, err := minoaner.ResolveStream(context.Background(), b.KB1, b.KB2, bad); err == nil {
		t.Fatal("expected a synchronous configuration error")
	}
}

// TestQueryKBStreamEqualsQueryKB: the index's streaming delta query,
// drained unbudgeted, reports exactly QueryKB's match set.
func TestQueryKBStreamEqualsQueryKB(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 7, 0.15)
	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 6)...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("QueryKB found no matches; fixture too small")
	}
	ch, err := ix.QueryKBStream(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	var got []minoaner.ScoredPair
	for sp := range ch {
		got = append(got, sp)
	}
	if !reflect.DeepEqual(streamMatchSet(got), sortMatches(want.Matches)) {
		t.Errorf("drained QueryKBStream (%d pairs) != QueryKB matches (%d)",
			len(got), len(want.Matches))
	}
}

// drainQueryKBStream collects one QueryKBStream run in emission order.
func drainQueryKBStream(tb testing.TB, ix *minoaner.Index, delta *minoaner.KB, opts ...minoaner.StreamOption) []minoaner.ScoredPair {
	tb.Helper()
	ch, err := ix.QueryKBStream(context.Background(), delta, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	var out []minoaner.ScoredPair
	for sp := range ch {
		out = append(out, sp)
	}
	return out
}

// TestQueryKBStreamPreparedEqualsFull: over the delta substrate
// QueryKBStream joins instead of re-blocking KB1, and emits exactly
// the sequence — pairs, scores, order — of the full path (a
// ResolveStream of KB1 against the delta), under both strategies and
// under budgets; drained, that is QueryKB's match set.
func TestQueryKBStreamPreparedEqualsFull(t *testing.T) {
	b, prepared, _ := buildBenchmarkIndex(t, "Restaurant", 7, 0.15)
	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 12)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, opts := range [][]minoaner.StreamOption{
		nil,
		{minoaner.WithStreamStrategy(minoaner.BlockRoundRobin)},
		{minoaner.WithMaxPairs(3)},
		{minoaner.WithMaxComparisons(25)},
	} {
		ch, err := minoaner.ResolveStream(context.Background(), prepared.KB1(), delta, prepared.Config(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var want []minoaner.ScoredPair
		for sp := range ch {
			want = append(want, sp)
		}
		if len(want) == 0 {
			t.Fatalf("case %d: the full path streamed nothing; fixture too small", i)
		}
		if got := drainQueryKBStream(t, prepared, delta, opts...); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: prepared path streamed %d pairs, full path %d, or in another order", i, len(got), len(want))
		}
	}
	res, err := prepared.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if got := streamMatchSet(drainQueryKBStream(t, prepared, delta)); !reflect.DeepEqual(got, sortMatches(res.Matches)) {
		t.Errorf("drained prepared QueryKBStream (%d pairs) != QueryKB matches (%d)", len(got), len(res.Matches))
	}
}

// BenchmarkQueryKBStreamFirst times the first pair of a one-entity
// delta streamed against a YAGO-IMDb index whose delta substrate is
// already derived.
func BenchmarkQueryKBStreamFirst(b *testing.B) {
	bm, err := minoaner.GenerateBenchmark("YAGO-IMDb", 42, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(bm.KB1, bm.KB2, minoaner.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	delta, err := bm.DeltaKB("delta", sampleDeltaURIs(bm, 1)...)
	if err != nil {
		b.Fatal(err)
	}
	drainQueryKBStream(b, ix, delta, minoaner.WithMaxPairs(1)) // derives the substrate
	b.ReportAllocs()
	for b.Loop() {
		if got := drainQueryKBStream(b, ix, delta, minoaner.WithMaxPairs(1)); len(got) != 1 {
			b.Fatalf("streamed %d pairs, want 1", len(got))
		}
	}
}

// BenchmarkQueryKB times a 1- and a 32-entity delta resolved against a
// YAGO-IMDb index whose delta substrate is already derived: the delta
// plan behind /delta.
func BenchmarkQueryKB(b *testing.B) {
	bm, err := minoaner.GenerateBenchmark("YAGO-IMDb", 42, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(bm.KB1, bm.KB2, minoaner.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 32} {
		delta, err := bm.DeltaKB("delta", sampleDeltaURIs(bm, n)...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ix.QueryKB(context.Background(), delta); err != nil { // derives the substrate
			b.Fatal(err)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ix.QueryKB(context.Background(), delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime bookkeeping) or the deadline hits.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finalizers and parked workers
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResolveStreamGoroutineHygiene: every way a stream ends — budget
// exhaustion, mid-stream cancellation, an already-expired deadline —
// must close the channel promptly and leave no resolving goroutine
// behind.
func TestResolveStreamGoroutineHygiene(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := minoaner.DefaultConfig()

	t.Run("max-pairs-exhaustion", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ch, err := minoaner.ResolveStream(context.Background(), b.KB1, b.KB2, cfg,
			minoaner.WithMaxPairs(2))
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for range ch {
			got++
		}
		if got != 2 {
			t.Fatalf("MaxPairs(2) emitted %d pairs", got)
		}
		waitForGoroutines(t, baseline)
	})

	t.Run("cancel-mid-stream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		ch, err := minoaner.ResolveStream(ctx, b.KB1, b.KB2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := <-ch; !ok {
			t.Fatal("stream closed before the first pair")
		}
		cancel()
		// The channel must close promptly; a few in-flight pairs may
		// still arrive.
		closed := make(chan struct{})
		go func() {
			for range ch {
			}
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("channel did not close after cancellation")
		}
		waitForGoroutines(t, baseline)
	})

	t.Run("expired-deadline", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		ch, err := minoaner.ResolveStream(ctx, b.KB1, b.KB2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			for range ch {
			}
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("channel did not close under an expired deadline")
		}
		waitForGoroutines(t, baseline)
	})

	t.Run("wall-clock-expiry", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		// A deadline that lands mid-resolution: whatever prefix made it
		// out is kept, the channel closes, nothing leaks.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		ch, err := minoaner.ResolveStream(ctx, b.KB1, b.KB2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan int)
		go func() {
			n := 0
			for range ch {
				n++
			}
			done <- n
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("channel did not close after the wall-clock budget expired")
		}
		// On a fast box the stream may drain before the deadline; either
		// way the deadline fires and the context reports it.
		<-ctx.Done()
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.Fatalf("context should have expired, got %v", ctx.Err())
		}
		waitForGoroutines(t, baseline)
	})
}
