// Package parallel provides the deterministic data-parallel primitives
// shared by the ingest, blocking, and matching layers: a chunked
// parallel for-loop and a self-scheduling one, both with error and
// cancellation propagation, and a worker count resolver.
//
// Everything here is designed so that results are bit-identical at any
// worker count: For hands each worker one contiguous, non-overlapping
// index range, and ForDynamic lets workers claim non-overlapping ranges.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// CancelCheckStride is how many per-item iterations a parallel loop
// body should run between context checks: frequent enough that
// cancellation lands within milliseconds, rare enough to stay off the
// profile.
const CancelCheckStride = 256

// EntityGrain is how many entities a worker claims at a time in the
// per-entity loops on ForDynamic: small enough that a cluster of
// expensive entities (IDs are sorted-URI positions, so kinds sit
// together) is shared between workers and that cancellation, checked
// per claim, lands within a millisecond; large enough that the shared
// cursor stays off the profile.
const EntityGrain = 64

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For splits [0,n) into contiguous chunks across min(workers,n)
// goroutines. The work function receives its worker index and chunk
// bounds; chunks do not overlap, so no synchronization is needed on
// per-index outputs. The first non-nil error wins; a cancelled context
// surfaces as ctx.Err() even if no worker observed it.
//
// For is for callers that need exactly one contiguous chunk per worker
// — a shard's private map, a per-worker sort run. A loop whose
// per-index cost is uneven and whose per-worker state survives between
// calls belongs on ForDynamic.
func For(ctx context.Context, n, workers int, work func(worker, start, end int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return work(0, 0, n)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
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
			if err := work(worker, s, e); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(w, start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// ForDynamic covers [0,n) with ranges of grain indices that workers
// claim from a shared cursor as they finish the previous one, so an
// uneven per-index cost (IDs are sorted-URI positions: entity kinds
// cluster) spreads across workers instead of landing in one worker's
// chunk. work may be called many times with the same worker index, but
// never concurrently: per-worker state indexed by it needs no
// synchronization and outlives the call. Ranges do not overlap and every
// index is claimed once, so per-index outputs do not depend on the
// schedule. The context is checked before every claim; the first
// non-nil error stops further claims and wins, and a cancelled context
// surfaces as ctx.Err() even if no worker observed it.
//
// Callers that need exactly one contiguous chunk per worker use For.
func ForDynamic(ctx context.Context, n, workers, grain int, work func(worker, start, end int) error) error {
	if grain < 1 {
		grain = 1
	}
	if ranges := (n + grain - 1) / grain; workers > ranges {
		workers = ranges
	}
	var (
		cursor   atomic.Int64
		stopped  atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	run := func(worker int) {
		for !stopped.Load() && ctx.Err() == nil {
			start := int(cursor.Add(int64(grain))) - grain
			if start >= n {
				return
			}
			if err := work(worker, start, min(start+grain, n)); err != nil {
				errOnce.Do(func() { firstErr = err })
				stopped.Store(true)
				return
			}
		}
	}
	if workers <= 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(w)
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
