// Prepared-side matching: the stages and state variant that resolve a
// small delta KB against a frozen left side at the cost of what the
// delta reaches — its blocks' members and the entities the heuristics
// touch — never of |KB1|. The left KB's blocking substrate
// (blocking.Prepared) and neighbor view (kb.Frozen) are built once; a
// delta run joins the substrate with the delta's own, bounded by it,
// indexes the joined blocks into scratch pooled on the Prepared, and
// fills the side-1 candidate lists lazily, for just the entities the
// heuristics touch.
//
// The delta plan is bit-identical to the full plan on the same pair:
// its blocking stages are the full plan's, joining the same keys into
// the same blocks in the same order, purging and ARCS
// weighting run unchanged on them, and the lazy side-1 fills run the
// eager stages' kernels over the same inputs in the same order, so
// every floating-point sum — and therefore every match — is the same.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
)

// Prepared bundles the frozen left side of a delta run: the one-sided
// blocking substrate and the sealed neighbor view. Build it once with
// PrepareSide (or load it from a snapshot) and share it across any
// number of concurrent delta runs.
//
//minoaner:frozen
type Prepared struct {
	// Blocks is the frozen token/name inverted index of the left KB.
	Blocks *blocking.Prepared
	// Neighbors is the sealed best-neighbor view of the left KB.
	Neighbors *kb.Frozen
	// side1 and accs pool the KB1-sized scratch of delta runs: side-1
	// block indexes and the accumulators scoring delta entities.
	side1 sync.Pool
	accs  accPool
}

// PrepareSide freezes kb1 under the given parameters. The substrate is
// valid only for delta runs with the same NameK and N.
func PrepareSide(kb1 *kb.KB, p Params) *Prepared {
	return &Prepared{
		Blocks:    blocking.Prepare(kb1, p.NameK, p.workers(), nil),
		Neighbors: kb1.Freeze(p.N, p.workers()),
	}
}

// Release returns a prepared-side run's side-1 block index, drawn from
// its Prepared by DeltaBlockIndexing, to that Prepared, reset, once the
// run's outputs have been read: TokenIndex and the lazy side 1 are gone
// afterwards. A no-op on other states and on a second call.
func (s *State) Release() {
	if s.delta == nil || s.TokenIndex == nil {
		return
	}
	s.TokenIndex.ByE1.Reset()
	s.delta.side1.Put(s.TokenIndex.ByE1)
	s.TokenIndex, s.lazy1 = nil, nil
}

// NewDeltaState prepares the blackboard for one prepared-side run of a
// delta KB against the frozen left side. The delta must be strictly
// smaller than the left KB (so the matching heuristics emit from the
// delta side; larger deltas should run the full plan), and the
// substrate must have been prepared under the same NameK and N.
func NewDeltaState(prep *Prepared, delta *kb.KB, p Params) (*State, error) {
	if prep == nil || prep.Blocks == nil || prep.Neighbors == nil {
		return nil, errors.New("pipeline: delta state requires a prepared side (PrepareSide)")
	}
	if prep.Blocks.KBSize() != prep.Neighbors.KB().Len() {
		return nil, fmt.Errorf("pipeline: prepared blocks cover %d entities, neighbor view %d",
			prep.Blocks.KBSize(), prep.Neighbors.KB().Len())
	}
	if prep.Blocks.NameK() != p.NameK {
		return nil, fmt.Errorf("pipeline: substrate prepared with NameK=%d, run wants %d", prep.Blocks.NameK(), p.NameK)
	}
	if prep.Neighbors.N() != p.N {
		return nil, fmt.Errorf("pipeline: substrate prepared with N=%d, run wants %d", prep.Neighbors.N(), p.N)
	}
	if delta.Len() >= prep.Neighbors.KB().Len() {
		return nil, fmt.Errorf("pipeline: delta (%d entities) is not smaller than the prepared KB (%d); run the full plan",
			delta.Len(), prep.Neighbors.KB().Len())
	}
	st := NewState(prep.Neighbors.KB(), delta, p)
	st.delta = prep
	return st, nil
}

// DeltaPlan returns the prepared-side counterpart of DefaultPlan. The
// delta stages keep the standard stage names, so plan edits (ablation
// Drops) and progress reporting work identically; blocking, purging,
// token weighting, and all four matching heuristics are the very same
// stages the full plan runs.
func DeltaPlan() []Stage {
	return []Stage{
		NameBlocking(),
		TokenBlocking(),
		BlockPurging(),
		DeltaBlockIndexing(),
		TokenWeighting(),
		DeltaValueCandidates(),
		DeltaNeighborCandidates(),
		NameMatching(),
		ValueMatching(),
		RankAggregation(),
		Union(),
		Reciprocity(),
	}
}

// errNotDelta guards the delta-only stages against full states.
var errNotDelta = errors.New("requires a prepared-side state (build it with NewDeltaState)")

// DeltaBlockIndexing indexes the purged B_T for a delta run: the delta
// side (it drives candidate scoring) and the left side, the access path
// of the lazy side-1 candidate fills, into KB1-sized scratch from the
// Prepared's pool, of which it touches only the joined blocks' members.
func DeltaBlockIndexing() Stage {
	return newStage(StageBlockIndexing, func(ctx context.Context, st *State) error {
		if st.delta == nil {
			return errNotDelta
		}
		if st.TokenBlocks == nil {
			return errors.New("requires token blocks (run " + StageTokenBlocking + " first)")
		}
		side1, _ := st.delta.side1.Get().(*blocking.IndexSide)
		if side1 == nil {
			side1 = blocking.NewIndexSide(st.KB1.Len())
		}
		st.TokenIndex = st.TokenBlocks.BuildIndexInto(side1)
		return nil
	})
}

// DeltaValueCandidates computes the top-K value candidates of every
// delta entity — the side-2 half of the eager stage — and sets up the
// lazy side 1, whose value fills read the side-1 index.
func DeltaValueCandidates() Stage {
	return newStage(StageValueCandidates, func(ctx context.Context, st *State) error {
		if st.delta == nil {
			return errNotDelta
		}
		if st.TokenIndex == nil {
			return errors.New("requires the token-block index (run " + StageBlockIndexing + " first)")
		}
		if st.Weights == nil {
			return errors.New("requires token weights (run " + StageTokenWeighting + " first)")
		}
		out, err := valueCandidatesSide(ctx, st.TokenIndex.ByE2, st.TokenBlocks, 2,
			st.Weights, st.Params.K, st.Params.workers(), &st.delta.accs)
		if err != nil {
			return err
		}
		st.ValueCands2 = out
		st.lazy1 = newLazySide(st, 1, st.TokenIndex.ByE1, nil, nil, nil)
		return nil
	})
}

// DeltaNeighborCandidates computes the top-K neighbor candidates of
// every delta entity from the delta's own best neighbors and the
// frozen side's reverse view, and arms the lazy side-1 neighbor fills
// with both views.
func DeltaNeighborCandidates() Stage {
	return newStage(StageNeighborCandidates, func(ctx context.Context, st *State) error {
		if st.delta == nil {
			return errNotDelta
		}
		if st.lazy1 == nil {
			return errors.New("requires value candidates (run " + StageValueCandidates + " first)")
		}
		views := [2]*kb.Frozen{st.delta.Neighbors, st.KB2.Freeze(st.Params.N, 1)} // the delta side is small
		out, err := neighborCandidatesSide(ctx, views[1].TopLists(), dense{vc: st.ValueCands2},
			views[0].RevLists(), st.Params.K, st.Params.workers(), &st.delta.accs)
		if err != nil {
			return err
		}
		st.NeighborCands2 = out
		st.lazy1.views = func() [2]*kb.Frozen { return views }
		return nil
	})
}
