package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAll(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3, 7, 100} {
		n := 57
		covered := make([]int32, n)
		err := For(ctx, n, workers, func(worker, start, end int) error {
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
	err := For(ctx, 0, 4, func(worker, start, end int) error {
		t.Error("work called for n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	err := For(context.Background(), 40, 4, func(worker, start, end int) error {
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
	err = For(ctx, 40, 4, func(worker, start, end int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v", err)
	}
}

func TestForDynamicCoversAll(t *testing.T) {
	ctx := context.Background()
	const n = 57
	for _, workers := range []int{1, 2, 3, 7, 100} {
		for _, grain := range []int{1, 32, n + 1} {
			covered := make([]int32, n) // each index is written by the one call that claimed it
			var calls atomic.Int32
			err := ForDynamic(ctx, n, workers, grain, func(worker, start, end int) error {
				calls.Add(1)
				if worker < 0 || worker >= workers {
					t.Errorf("workers=%d grain=%d: worker index %d", workers, grain, worker)
				}
				if start%grain != 0 || end-start > grain || end <= start || end > n {
					t.Errorf("workers=%d grain=%d: claimed [%d,%d)", workers, grain, start, end)
				}
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
					t.Fatalf("workers=%d grain=%d: index %d covered %d times", workers, grain, i, c)
				}
			}
			if want := int32((n + grain - 1) / grain); calls.Load() != want {
				t.Errorf("workers=%d grain=%d: %d calls, want %d", workers, grain, calls.Load(), want)
			}
		}
	}
	err := ForDynamic(ctx, 0, 4, 8, func(worker, start, end int) error {
		t.Error("work called for n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForDynamicWorkerCallsNeverOverlap is the contract per-worker state
// rests on: the counters below are plain ints touched only through the
// worker index, so two overlapping calls with one index are a data race
// (-race) and usually a lost update.
func TestForDynamicWorkerCallsNeverOverlap(t *testing.T) {
	const n, workers, grain = 10_000, 7, 3
	type state struct{ calls, indices int }
	states := make([]state, workers)
	err := ForDynamic(context.Background(), n, workers, grain, func(worker, start, end int) error {
		s := &states[worker]
		s.calls++
		for i := start; i < end; i++ {
			s.indices++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	calls, indices := 0, 0
	for _, s := range states {
		calls += s.calls
		indices += s.indices
	}
	if calls != (n+grain-1)/grain || indices != n {
		t.Errorf("per-worker counters sum to %d calls over %d indices, want %d over %d", calls, indices, (n+grain-1)/grain, n)
	}
}

func TestForDynamicFirstErrorStopsClaims(t *testing.T) {
	boom := errors.New("boom")
	// Serial: exactly the claims up to the failing one are made.
	calls := 0
	err := ForDynamic(context.Background(), 100, 1, 1, func(_, start, _ int) error {
		calls++
		if start == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 11 {
		t.Errorf("serial: err = %v after %d calls, want boom after 11", err, calls)
	}

	// Parallel: the first claim fails; every other call waits for that
	// moment and then yields, so the failing worker records its error
	// long before the range could be exhausted.
	const n = 1 << 20
	failed := make(chan struct{})
	var made atomic.Int64
	err = ForDynamic(context.Background(), n, 4, 1, func(_, start, _ int) error {
		made.Add(1)
		if start == 0 {
			close(failed)
			return boom
		}
		<-failed
		runtime.Gosched()
		return errors.New("a later error")
	})
	if !errors.Is(err, boom) {
		t.Errorf("parallel: err = %v, want the first error", err)
	}
	if got := made.Load(); got >= n/2 {
		t.Errorf("parallel: %d of %d claims made after the first failed", got, n)
	}
}

func TestForDynamicReportsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := ForDynamic(ctx, 100, 1, 1, func(_, start, _ int) error {
		calls++
		if start == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls != 3 {
		t.Errorf("cancelled during claim 3: err = %v after %d calls", err, calls)
	}
	err = ForDynamic(ctx, 100, 4, 1, func(_, _, _ int) error {
		t.Error("work called under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled before the loop: err = %v", err)
	}
}

// TestForDynamicSharesAnExpensiveTail: with all the cost in the last
// quarter of the range — the shape sorted-URI entity IDs give a
// mutation — a second worker must come and claim ranges there. The cost
// is a rendezvous, not a sleep: a call in the tail waits until two
// different workers have entered it, which a one-chunk-per-worker split
// (For) never satisfies. The timeout only bounds the failure.
func TestForDynamicSharesAnExpensiveTail(t *testing.T) {
	const n, workers, grain = 4096, 2, 16
	var (
		mu      sync.Mutex
		entered = map[int]int{} // worker -> ranges claimed in the tail
		both    = make(chan struct{})
	)
	err := ForDynamic(context.Background(), n, workers, grain, func(worker, start, _ int) error {
		if start < n-n/4 {
			return nil
		}
		mu.Lock()
		entered[worker]++
		if len(entered) == 2 && entered[worker] == 1 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("one worker was left alone with the expensive tail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entered) < 2 {
		t.Errorf("tail ranges per worker: %v, want both workers", entered)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS", got)
	}
}
