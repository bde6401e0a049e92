package pipeline

import (
	"context"
	"errors"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// Stage names, usable with Drop, Replace, and Until to edit plans.
const (
	StageNameBlocking       = "name-blocking"
	StageTokenBlocking      = "token-blocking"
	StageBlockPurging       = "block-purging"
	StageBlockIndexing      = "block-indexing"
	StageTokenWeighting     = "token-weighting"
	StageValueCandidates    = "value-candidates"
	StageNeighborCandidates = "neighbor-candidates"
	StageNameMatching       = "h1-names"
	StageValueMatching      = "h2-values"
	StageRankAggregation    = "h3-rank-aggregation"
	StageUnion              = "union"
	StageReciprocity        = "h4-reciprocity"
)

// DefaultPlan returns the full MinoanER composition,
// M = (H1 ∨ H2 ∨ H3) ∧ H4, as a stage plan. Running it unchanged
// reproduces the monolithic matcher exactly; editing it expresses
// ablations and partial workloads.
func DefaultPlan() []Stage {
	return []Stage{
		NameBlocking(),
		TokenBlocking(),
		BlockPurging(),
		BlockIndexing(),
		TokenWeighting(),
		ValueCandidates(),
		NeighborCandidates(),
		NameMatching(),
		ValueMatching(),
		RankAggregation(),
		Union(),
		Reciprocity(),
	}
}

// NameBlocking builds B_N: one block per normalized name key of the
// KBs' most distinctive attributes, the join of the run's two
// substrates (see State.blockingSides).
func NameBlocking() Stage {
	return newStage(StageNameBlocking, func(ctx context.Context, st *State) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sides := st.blockingSides()
		st.NameBlocks = blocking.JoinNameBlocks(sides[0], sides[1])
		st.NameBlockCount = st.NameBlocks.Size()
		st.NameComparisons = st.NameBlocks.Comparisons()
		st.releaseSides()
		return nil
	})
}

// TokenBlocking builds the raw B_T: one block per token appearing in
// both KBs, the join of the run's two substrates.
func TokenBlocking() Stage {
	return newStage(StageTokenBlocking, func(ctx context.Context, st *State) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sides := st.blockingSides()
		st.TokenBlocks = blocking.JoinTokenBlocks(sides[0], sides[1])
		st.releaseSides()
		return nil
	})
}

// BlockPurging removes the stop-word blocks from B_T per
// Params.Purge, then freezes the collection's statistics and index.
func BlockPurging() Stage {
	return newStage(StageBlockPurging, func(ctx context.Context, st *State) error {
		if st.TokenBlocks == nil {
			return errors.New("requires token blocks (run " + StageTokenBlocking + " first)")
		}
		st.TokenBlocks, st.PurgeStats = blocking.Purge(st.TokenBlocks, st.Params.Purge)
		finishTokenBlocks(st)
		return nil
	})
}

// KeepAllBlocks is a drop-in replacement for BlockPurging that keeps
// every token block — the "no purging" ablation as a plan edit:
//
//	plan = Replace(DefaultPlan(), StageBlockPurging, KeepAllBlocks())
func KeepAllBlocks() Stage {
	return newStage(StageBlockPurging, func(ctx context.Context, st *State) error {
		if st.TokenBlocks == nil {
			return errors.New("requires token blocks (run " + StageTokenBlocking + " first)")
		}
		st.PurgeStats = blocking.PurgeResult{}
		finishTokenBlocks(st)
		return nil
	})
}

// finishTokenBlocks records the post-purging statistics of B_T.
func finishTokenBlocks(st *State) {
	st.TokenBlockCount = st.TokenBlocks.Size()
	st.TokenComparisons = st.TokenBlocks.Comparisons()
}

// BlockIndexing builds the entity-to-blocks index of the purged B_T,
// the access path of candidate scoring. It is a separate stage so
// blocking-only prefixes (Until StageBlockPurging) skip its cost.
func BlockIndexing() Stage {
	return newStage(StageBlockIndexing, func(ctx context.Context, st *State) error {
		if st.TokenBlocks == nil {
			return errors.New("requires token blocks (run " + StageTokenBlocking + " first)")
		}
		st.TokenIndex = st.TokenBlocks.BuildIndex()
		return nil
	})
}

// TokenWeighting assigns every surviving token block its ARCS weight.
func TokenWeighting() Stage {
	return newStage(StageTokenWeighting, func(ctx context.Context, st *State) error {
		if st.TokenBlocks == nil {
			return errors.New("requires token blocks (run " + StageTokenBlocking + " first)")
		}
		st.Weights = tokenWeights(st.TokenBlocks)
		return nil
	})
}

// ValueCandidates computes the top-K value-similarity candidates of
// every entity on both sides, in parallel.
func ValueCandidates() Stage {
	return newStage(StageValueCandidates, func(ctx context.Context, st *State) error {
		if st.TokenIndex == nil {
			return errors.New("requires the token-block index (run " + StageBlockIndexing + " first)")
		}
		if st.Weights == nil {
			return errors.New("requires token weights (run " + StageTokenWeighting + " first)")
		}
		var err error
		st.ValueCands1, st.ValueCands2, err = valueCandidates(
			ctx, st.TokenBlocks, st.TokenIndex, st.Weights, st.Params.K, st.Params.workers())
		return err
	})
}

// NeighborCandidates computes the top-K neighbor-similarity candidates
// of every entity on both sides, in parallel, from the value evidence
// of each entity's best neighbors.
func NeighborCandidates() Stage {
	return newStage(StageNeighborCandidates, func(ctx context.Context, st *State) error {
		if st.ValueCands1 == nil || st.ValueCands2 == nil {
			return errors.New("requires value candidates (run " + StageValueCandidates + " first)")
		}
		n, workers := st.Params.N, st.Params.workers()
		var err error
		st.NeighborCands1, st.NeighborCands2, err = neighborCandidates(
			ctx, st.KB1.Freeze(n, workers), st.KB2.Freeze(n, workers),
			st.ValueCands1, st.ValueCands2, st.Params.K, workers)
		return err
	})
}

// NameMatching emits H1: a name block holding exactly one entity from
// each KB declares a match — the two entities, and only they, share
// that name.
func NameMatching() Stage {
	return newStage(StageNameMatching, func(ctx context.Context, st *State) error {
		if st.NameBlocks == nil {
			return errors.New("requires name blocks (run " + StageNameBlocking + " first)")
		}
		for i := range st.NameBlocks.Blocks {
			b := &st.NameBlocks.Blocks[i]
			if len(b.E1) != 1 || len(b.E2) != 1 {
				continue
			}
			e1, e2 := b.E1[0], b.E2[0]
			if _, taken := st.H1Map1[e1]; taken {
				continue
			}
			if _, taken := st.H1Map2[e2]; taken {
				continue
			}
			st.H1Map1[e1] = e2
			st.H1Map2[e2] = e1
			st.H1 = append(st.H1, eval.Pair{E1: e1, E2: e2})
		}
		return nil
	})
}

// ValueMatching emits H2: a yet-unmatched entity's strongest
// co-occurring candidate wins if the value similarity reaches 1 —
// many common, infrequent tokens.
func ValueMatching() Stage {
	return newStage(StageValueMatching, func(ctx context.Context, st *State) error {
		if !st.haveValueCands() {
			return errors.New("requires value candidates (run " + StageValueCandidates + " first)")
		}
		st.H2TakenA = make(map[kb.EntityID]struct{})
		st.H2TakenB = make(map[kb.EntityID]struct{})
		m := st.matcher()
		for e := 0; e < m.sizeA; e++ {
			if e%cancelCheckStride == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			ea := kb.EntityID(e)
			if eb, ok := m.valueMatch(ea); ok {
				st.H2 = append(st.H2, m.pair(ea, eb))
				st.H2TakenA[ea] = struct{}{}
				st.H2TakenB[eb] = struct{}{}
			}
		}
		return nil
	})
}

// RankAggregation emits H3: each remaining entity matches its top-1
// candidate under the θ-weighted sum of normalized value and neighbor
// ranks.
func RankAggregation() Stage {
	return newStage(StageRankAggregation, func(ctx context.Context, st *State) error {
		if !st.haveValueCands() {
			return errors.New("requires value candidates (run " + StageValueCandidates + " first)")
		}
		if !st.haveNeighborCands() {
			return errors.New("requires neighbor candidates (run " + StageNeighborCandidates + " first)")
		}
		m := st.matcher()
		claimed := m.newClaims()
		for e := 0; e < m.sizeA; e++ {
			if e%cancelCheckStride == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			ea := kb.EntityID(e)
			if eb, ok := m.rankMatch(ea, claimed); ok {
				st.H3 = append(st.H3, m.pair(ea, eb))
			}
		}
		return nil
	})
}

// Union collects H1 ∨ H2 ∨ H3 into Matches, deduplicated and in
// canonical pair order. With Reciprocity dropped from the plan this is
// the final output, matching the "no H4" ablation.
func Union() Stage {
	return newStage(StageUnion, func(ctx context.Context, st *State) error {
		union := make([]eval.Pair, 0, len(st.H1)+len(st.H2)+len(st.H3))
		union = append(append(append(union, st.H1...), st.H2...), st.H3...)
		st.Matches = eval.DedupPairs(union)
		st.unionDone = true
		return nil
	})
}

// Reciprocity applies H4: a pair survives only if each entity lists
// the other among its top-K value or neighbor candidates. Matches is
// filtered in place, preserving canonical order.
func Reciprocity() Stage {
	return newStage(StageReciprocity, func(ctx context.Context, st *State) error {
		if !st.unionDone {
			return errors.New("requires the heuristic union (run " + StageUnion + " first)")
		}
		if !st.haveValueCands() {
			return errors.New("requires value candidates (run " + StageValueCandidates + " first)")
		}
		if !st.haveNeighborCands() {
			return errors.New("requires neighbor candidates (run " + StageNeighborCandidates + " first)")
		}
		m := st.matcher()
		kept := st.Matches[:0]
		for _, p := range st.Matches {
			if m.reciprocal(p) {
				kept = append(kept, p)
			} else {
				st.DiscardedByH4++
			}
		}
		st.Matches = kept
		return nil
	})
}
