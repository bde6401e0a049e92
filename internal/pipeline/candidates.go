package pipeline

import (
	"context"
	"math"
	"sync"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Cand is one candidate match of an entity, with its similarity under
// one evidence type.
type Cand struct {
	ID  kb.EntityID
	Sim float64
}

// tokenWeights assigns each token block of the (purged) collection its
// ARCS weight 1/log2(EF1·EF2+1). Because Token Blocking keys blocks by
// token, EF_E(t) is exactly the number of the block's members from E.
func tokenWeights(bt *blocking.Collection) []float64 {
	w := make([]float64, len(bt.Blocks))
	for i := range bt.Blocks {
		b := &bt.Blocks[i]
		w[i] = 1 / math.Log2(float64(len(b.E1))*float64(len(b.E2))+1)
	}
	return w
}

// valueCandidates computes, for every entity of both KBs, its top-K
// co-occurring entities by valueSim. The similarity is accumulated
// block-by-block: each shared token block contributes its weight to
// every cross pair it suggests, which realizes
// valueSim = Σ_{shared tokens} w(t) over the blocks' tokens.
func valueCandidates(ctx context.Context, bt *blocking.Collection, idx *blocking.Index, weights []float64, k, workers int) ([][]Cand, [][]Cand, error) {
	side1, err := valueCandidatesSide(ctx, idx.ByE1, bt, 1, weights, k, workers, nil)
	if err != nil {
		return nil, nil, err
	}
	side2, err := valueCandidatesSide(ctx, idx.ByE2, bt, 2, weights, k, workers, nil)
	if err != nil {
		return nil, nil, err
	}
	return side1, side2, nil
}

// valueCandidatesSide is valueCandidates for the entities of one side
// (1 or 2): byEnt lists each entity's purged token blocks, ascending.
func valueCandidatesSide(ctx context.Context, byEnt *blocking.IndexSide, bt *blocking.Collection, side int, weights []float64, k, workers int, pool *accPool) ([][]Cand, error) {
	out := make([][]Cand, byEnt.Len())
	accs := make(workerAccumulators, workers)
	defer pool.put(accs...)
	other := oppositeSize(bt, side)
	err := parallelFor(ctx, len(out), workers, func(worker, start, end int) error {
		acc := accs.of(worker, other, pool)
		for e := start; e < end; e++ {
			acc.addValueEvidence(byEnt.Of(kb.EntityID(e)), bt, side, weights)
			out[e] = acc.topK(k)
			acc.reset()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// oppositeSize is the entity count of the side opposite to side.
func oppositeSize(bt *blocking.Collection, side int) int {
	n1, n2 := bt.KBSizes()
	if side == 1 {
		return n2
	}
	return n1
}

// neighborCandidates computes, for every entity, its top-K candidates
// by neighbor similarity:
//
//	neighborNSim(e_i, e_j) = Σ valueSim(n_i, n_j)
//
// over pairs (n_i, n_j) of best neighbors (via the N most important
// relations of each entity). The sum is realized through the top-K
// value-candidate lists of the neighbors — exactly the evidence the
// blocks provide — so only pairs co-occurring in token blocks
// contribute, as in the paper's blocks-centric computation. view1 and
// view2 are the two KBs' best-neighbor views.
func neighborCandidates(ctx context.Context, view1, view2 *kb.Frozen, vc1, vc2 [][]Cand, k, workers int) ([][]Cand, [][]Cand, error) {
	out1, err := neighborCandidatesSide(ctx, view1.TopLists(), dense{vc: vc1}, view2.RevLists(), k, workers, nil)
	if err != nil {
		return nil, nil, err
	}
	out2, err := neighborCandidatesSide(ctx, view2.TopLists(), dense{vc: vc2}, view1.RevLists(), k, workers, nil)
	if err != nil {
		return nil, nil, err
	}
	return out1, out2, nil
}

// neighborCandidatesSide is neighborCandidates for one side: the best
// neighbors of each entity (top) propose, through their value
// candidates (s), every opposite-side entity that counts such a
// candidate among its own best neighbors (rev).
func neighborCandidatesSide(ctx context.Context, top [][]kb.EntityID, s side, rev [][]kb.EntityID, k, workers int, pool *accPool) ([][]Cand, error) {
	out := make([][]Cand, len(top))
	accs := make(workerAccumulators, workers)
	defer pool.put(accs...)
	err := parallelFor(ctx, len(top), workers, func(worker, start, end int) error {
		acc := accs.of(worker, len(rev), pool)
		for e := start; e < end; e++ {
			acc.addNeighborEvidence(top[e], s, rev)
			out[e] = acc.topK(k)
			acc.reset()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// accumulator aggregates per-candidate similarity with O(1) reset via
// a touched list.
type accumulator struct {
	sums    []float64
	touched []int32
}

func newAccumulator(n int) *accumulator {
	return &accumulator{sums: make([]float64, n)}
}

// accPool recycles the dense accumulators of one size across runs. It
// lives on the frozen structure the size comes from (a Prepared, a
// StreamBase), so the scratch dies with its epoch. A nil *accPool
// allocates afresh and keeps nothing (batch and update runs).
type accPool struct{ pool sync.Pool }

func (p *accPool) get(n int) *accumulator {
	if p != nil {
		if a, ok := p.pool.Get().(*accumulator); ok {
			return a
		}
	}
	return newAccumulator(n)
}

// put returns accumulators (nil entries skipped) to the pool, reset.
func (p *accPool) put(accs ...*accumulator) {
	for _, a := range accs {
		if p != nil && a != nil {
			a.reset()
			p.pool.Put(a)
		}
	}
}

// workerAccumulators holds one dense accumulator per parallelFor worker,
// drawn on the worker's first use: calls with the same worker index
// never overlap, and a worker that claims no entity to score (an update
// whose affected entities all fell to others) never pays for one.
type workerAccumulators []*accumulator

func (w workerAccumulators) of(worker, n int, pool *accPool) *accumulator {
	if w[worker] == nil {
		w[worker] = pool.get(n)
	}
	return w[worker]
}

// add contributes w to id's sum. Every contribution must be > 0:
// sums[id] == 0 is the "untouched" sentinel, so after a zero
// contribution the next one would append id to touched a second time
// and topK would list it twice. Token weights are strictly positive
// (tokenWeights) and the neighbor loops skip candidates with Sim <= 0.
func (a *accumulator) add(id int32, w float64) {
	if a.sums[id] == 0 {
		a.touched = append(a.touched, id)
	}
	a.sums[id] += w
}

// The two evidence kernels. Every engine — the eager stages, the
// update plan's affected entities and the lazy fills of delta and
// stream runs — sums an entity's evidence through one of them, so every
// float sum associates identically whichever engine computes it. Each
// returns how many contributions it accumulated.

// addValueEvidence accumulates the value similarity of an entity of the
// given side (1 or 2): each of its purged token blocks, in ascending
// position, adds its ARCS weight to every opposite-side member.
func (a *accumulator) addValueEvidence(blocks []int32, bt *blocking.Collection, side int, weights []float64) int64 {
	var n int64
	for _, bi := range blocks {
		b := &bt.Blocks[bi]
		members := b.E1
		if side == 1 {
			members = b.E2
		}
		n += int64(len(members))
		w := weights[bi]
		for _, o := range members {
			a.add(int32(o), w)
		}
	}
	return n
}

// addNeighborEvidence accumulates one entity's neighbor similarity: its
// best neighbors n_i (top) propose, through their value candidates n_j
// (as s lists them), every opposite-side entity that has n_j among its
// own best neighbors (rev).
func (a *accumulator) addNeighborEvidence(top []kb.EntityID, s side, rev [][]kb.EntityID) int64 {
	var n int64
	for _, nei := range top {
		for _, cand := range s.value(nei) {
			if cand.Sim <= 0 {
				continue
			}
			others := rev[cand.ID]
			n += int64(len(others))
			for _, o := range others {
				a.add(int32(o), cand.Sim)
			}
		}
	}
	return n
}

func (a *accumulator) reset() {
	for _, id := range a.touched {
		a.sums[id] = 0
	}
	a.touched = a.touched[:0]
}

// topK selects the k best candidates by similarity (ties by ascending
// ID) from the touched set, best first. One pass keeps the k best seen
// so far in a heap whose root is the worst of them, so most of the
// touched set is rejected by a single comparison against the root; the
// heap lives in the result slice itself, which therefore has exactly
// min(k, |touched|) capacity and pins nothing larger. The order is
// total, so the result is the same sequence a full sort would yield.
func (a *accumulator) topK(k int) []Cand {
	m := min(k, len(a.touched))
	if m <= 0 {
		return nil
	}
	h := make([]Cand, m)
	for i, id := range a.touched[:m] {
		h[i] = Cand{ID: kb.EntityID(id), Sim: a.sums[id]}
	}
	for i := m/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, id := range a.touched[m:] {
		c := Cand{ID: kb.EntityID(id), Sim: a.sums[id]}
		if ranksAfter(h[0], c) {
			h[0] = c
			siftDown(h, 0)
		}
	}
	// Heap-sort in place: each round moves the worst remaining
	// candidate behind the shrinking heap, leaving the best first.
	for end := m - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	return h
}

// ranksAfter reports whether a follows b in the candidate order:
// similarity descending, ties by ascending ID.
func ranksAfter(a, b Cand) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// siftDown restores the heap property (every parent ranks after its
// children, so h[0] is the worst candidate) below position i.
func siftDown(h []Cand, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && ranksAfter(h[r], h[c]) {
			c = r
		}
		if !ranksAfter(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// cancelCheckStride is how many per-entity iterations a serial loop
// runs between context checks; see parallel.CancelCheckStride.
const cancelCheckStride = parallel.CancelCheckStride

// parallelFor is the per-entity candidate loop of every engine: workers
// claim parallel.EntityGrain-sized ranges (parallel.ForDynamic), so work may
// run many times per worker — never concurrently for one worker index —
// and the context is checked before each claim.
func parallelFor(ctx context.Context, n, workers int, work func(worker, start, end int) error) error {
	return parallel.ForDynamic(ctx, n, workers, parallel.EntityGrain, work)
}
