package minoaner

import (
	"context"
	"fmt"

	"minoaner/internal/core"
	"minoaner/internal/pipeline"
)

// Anytime resolution: ResolveStream (and Index.QueryKBStream) turn
// matching into a streaming computation that emits each confirmed pair
// the moment heuristics H1–H4 agree on it, in decreasing pair quality.
// On two fresh KBs time-to-first-match is bounded by the cheap blocking
// prefix rather than KB size; an index keeps that prefix's output per
// epoch (streamBase), with every candidate list an earlier stream on
// the epoch filled, so its streams score only what no earlier one
// reached, and with each strategy's emission order as far as one got,
// so a stream that order covers is replayed without deciding anything.
// A budget — max pairs, max comparisons, or a context deadline —
// truncates the stream to a deterministic prefix of the quality order.
// Draining an unbudgeted stream yields exactly the match set Resolve
// reports for the same inputs.

// ScoredPair is one confirmed match of a streaming resolution.
type ScoredPair struct {
	// URI1 and URI2 identify the matched entities (first and second KB).
	URI1 string
	URI2 string
	// Score orders the stream: emitted scores never increase. The
	// integer part is the heuristic tier (name matches score highest,
	// then values, then rank aggregation); the fraction ranks pairs
	// within a tier by their schedule position.
	Score float64
	// Heuristic names the proposing heuristic: "name" (H1), "value"
	// (H2), or "rank" (H3). Reciprocity (H4) filters, it never proposes.
	Heuristic string
}

// StreamStrategy selects the pair-quality scheduler of a streaming
// resolution. Both strategies surface the pairs with the rarest shared
// evidence first; they differ in how block weights become a visit
// order.
type StreamStrategy int

const (
	// WeightOrdered visits entities by the ARCS weight of their rarest
	// shared token block, descending — comparison scheduling à la
	// progressive meta-blocking. The default.
	WeightOrdered StreamStrategy = iota
	// BlockRoundRobin walks the token blocks in decreasing ARCS weight
	// and takes one yet-unseen entity from each per round — the
	// block-centric scheduling variant.
	BlockRoundRobin
)

// StreamOption customizes one ResolveStream (or QueryKBStream) run.
type StreamOption func(*streamOptions)

type streamOptions struct {
	maxPairs       int
	maxComparisons int64
	strategy       StreamStrategy
}

// WithMaxPairs stops the stream after n emitted pairs (n <= 0 means
// unlimited). The emitted pairs are always the first n of the
// unbudgeted stream.
func WithMaxPairs(n int) StreamOption {
	return func(o *streamOptions) { o.maxPairs = n }
}

// WithMaxComparisons stops the stream once the lazy candidate scoring
// has accumulated n entity-entity contributions (n <= 0 means
// unlimited). The cut point is deterministic: the same budget always
// yields the same prefix.
func WithMaxComparisons(n int64) StreamOption {
	return func(o *streamOptions) { o.maxComparisons = n }
}

// WithStreamStrategy selects the pair-quality scheduler.
func WithStreamStrategy(s StreamStrategy) StreamOption {
	return func(o *streamOptions) { o.strategy = s }
}

// heuristicName maps the pipeline's heuristic tags onto the public
// wire names (matching Result.ByName/ByValue/ByRank).
func heuristicName(h uint8) string {
	switch h {
	case 1:
		return "name"
	case 2:
		return "value"
	case 3:
		return "rank"
	}
	return fmt.Sprintf("h%d", h)
}

// ResolveStream runs the MinoanER matching process as an anytime
// computation: the returned channel yields each confirmed match the
// moment H1–H4 agree on it, best pairs first, and closes when the
// stream is drained, a budget is reached, or ctx is cancelled (a
// deadline on ctx is the wall-clock budget). Configuration errors are
// reported synchronously, before any work starts.
//
// Draining the channel with no budget yields exactly the matches
// Resolve reports for the same inputs — streaming changes the order
// and the latency to the first pair, never the result. The emission
// order is deterministic for a given strategy.
//
// The caller must either drain the channel or cancel ctx; abandoning
// the channel with a live context leaks the resolving goroutine. The
// channel buffers a few dozen confirmed pairs, so after cancellation up
// to that many pairs confirmed before it may still arrive before the
// channel closes.
func ResolveStream(ctx context.Context, kb1, kb2 *KB, cfg Config, opts ...StreamOption) (<-chan ScoredPair, error) {
	ccfg, budget, err := streamConfig(cfg, opts)
	if err != nil {
		return nil, err
	}
	return streamTo(ctx, kb1, kb2, budget, func(emit func(pipeline.ScoredPair) bool) error {
		return core.RunStream(ctx, kb1.kb, kb2.kb, ccfg, budget, emit)
	}), nil
}

// streamConfig resolves a stream's options against cfg into the
// validated internal configuration (strategy included) and the budget.
func streamConfig(cfg Config, opts []StreamOption) (core.Config, pipeline.StreamBudget, error) {
	var o streamOptions
	for _, opt := range opts {
		opt(&o)
	}
	ccfg := cfg.internal()
	ccfg.Strategy = pipeline.StreamStrategy(o.strategy)
	return ccfg, pipeline.StreamBudget{MaxPairs: o.maxPairs, MaxComparisons: o.maxComparisons}, ccfg.Validate()
}

// streamBuffer is how many confirmed pairs a stream's channel holds
// before the resolving goroutine waits for the consumer: enough that a
// consumer finds a run of pairs ready (an HTTP handler writes it out in
// one flush), small enough to bound what a cancelled stream still
// delivers.
const streamBuffer = 64

// streamTo starts run on its own goroutine and returns the channel its
// pairs arrive on, translated to URIs of the two KBs. The channel holds
// streamBuffer pairs, or all of a smaller pair budget.
func streamTo(ctx context.Context, kb1, kb2 *KB, budget pipeline.StreamBudget, run func(emit func(pipeline.ScoredPair) bool) error) <-chan ScoredPair {
	size := streamBuffer
	if budget.MaxPairs > 0 {
		size = min(size, budget.MaxPairs)
	}
	ch := make(chan ScoredPair, size)
	go func() {
		defer close(ch)
		// Budget expiry and cancellation both surface as a closed
		// channel: an anytime consumer keeps every pair received so far.
		_ = run(func(sp pipeline.ScoredPair) bool {
			out := ScoredPair{
				URI1:      kb1.kb.URI(sp.Pair.E1),
				URI2:      kb2.kb.URI(sp.Pair.E2),
				Score:     sp.Score,
				Heuristic: heuristicName(sp.Heuristic),
			}
			select {
			case ch <- out:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return ch
}

// QueryKBStream resolves a delta KB against the index's first KB as an
// anytime stream (the streaming counterpart of QueryKB): confirmed
// matches arrive best-first on the returned channel, under the same
// budget and strategy options as ResolveStream. Like QueryKB it joins
// against the epoch's delta substrate when the delta is smaller than KB1 (on a
// mapped index, without decoding KB1's full tier), and re-blocks the
// whole pair otherwise; both paths stream the same pairs in the same
// order. Draining it unbudgeted yields exactly QueryKB's match set for
// the same delta. The call answers from one epoch; concurrent
// mutations never tear it. As with ResolveStream, pairs confirmed
// before a cancellation may still arrive, up to the channel's buffer.
func (ix *Index) QueryKBStream(ctx context.Context, delta *KB, opts ...StreamOption) (<-chan ScoredPair, error) {
	e := ix.cur.Load()
	if delta.Len() >= e.kb1.Len() {
		if err := e.materializeKB1(); err != nil {
			return nil, err
		}
		return ResolveStream(ctx, e.kb1, delta, e.cfg, opts...)
	}
	prep, err := e.d.prep()
	if err != nil {
		return nil, err
	}
	return e.streamPrepared(ctx, prep, delta, opts)
}

// streamPrepared streams the delta against the epoch's frozen
// substrate: the blocking prefix joins it with the delta's substrate.
func (e *epoch) streamPrepared(ctx context.Context, prep *pipeline.Prepared, delta *KB, opts []StreamOption) (<-chan ScoredPair, error) {
	ccfg, budget, err := streamConfig(e.cfg, opts)
	if err != nil {
		return nil, err
	}
	st, err := pipeline.NewDeltaState(prep, delta.kb, ccfg.Params())
	if err != nil {
		return nil, err
	}
	return streamTo(ctx, e.kb1, delta, budget, func(emit func(pipeline.ScoredPair) bool) error {
		return pipeline.RunStream(ctx, st, ccfg.StreamConfig(budget), emit)
	}), nil
}

// buildStreamBase derives the epoch's stream base from its block
// collections; the epoch's memo runs it on the epoch's first stream.
// The build is not cancellable: it is ≤ 20 ms of work every later
// stream on the epoch reuses, so the budget_ms deadline or disconnect
// of the request that happens to trigger it must not abort it.
func (e *epoch) buildStreamBase() (*pipeline.StreamBase, error) {
	if err := e.materializeKB1(); err != nil {
		return nil, err
	}
	if err := e.materializeKB2(); err != nil {
		return nil, err
	}
	b, err := e.d.blocks()
	if err != nil {
		return nil, err
	}
	st := pipeline.NewState(e.kb1.kb, e.kb2.kb, e.cfg.internal().Params())
	st.NameBlocks, st.TokenBlocks = b.name, b.token
	return pipeline.NewStreamBase(context.Background(), st)
}

// streamBase returns the epoch's stream base, counting each base the
// first time the index serves it.
func (ix *Index) streamBase(e *epoch) (*pipeline.StreamBase, error) {
	base, err := e.d.stream()
	if err == nil && e.d.streamCounted.CompareAndSwap(false, true) {
		ix.streamBaseBuilds.Add(1)
	}
	return base, err
}

// resolveStream re-resolves the index's own KB pair as an anytime
// stream over the current epoch's stream base: the first stream of an
// epoch builds the base, synchronously, and every later one reuses the
// base, the candidate lists earlier streams filled on it and the
// emission order they recorded. Same options and channel contract as
// ResolveStream.
func (ix *Index) resolveStream(ctx context.Context, opts ...StreamOption) (<-chan ScoredPair, error) {
	e := ix.cur.Load()
	ccfg, budget, err := streamConfig(e.cfg, opts)
	if err != nil {
		return nil, err
	}
	base, err := ix.streamBase(e)
	if err != nil {
		return nil, err
	}
	return streamTo(ctx, e.kb1, e.kb2, budget, func(emit func(pipeline.ScoredPair) bool) error {
		return base.Run(ctx, ccfg.Strategy, ccfg.StreamConfig(budget), emit)
	}), nil
}

// materializeKB2 forces KB2's full tier — what full-pair streaming
// reads. A nil check on eager indexes.
func (e *epoch) materializeKB2() error {
	if err := e.kb2.kb.Materialize(); err != nil {
		return fmt.Errorf("%w: kb2: %v", ErrSnapshotCorrupt, err)
	}
	return nil
}
