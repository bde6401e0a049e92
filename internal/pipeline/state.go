package pipeline

import (
	"runtime"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// Params carries the MinoanER parameters a stage plan runs under. It is
// the pipeline-level mirror of core.Config without the ablation
// switches: ablations are expressed as plan edits (dropping or
// replacing stages), not as flags threaded through the stages.
type Params struct {
	// K is the number of candidate matches kept per entity and per
	// evidence type (value, neighbor).
	K int
	// N is the number of most important relations per entity whose
	// neighbors contribute to neighbor similarity.
	N int
	// NameK is the number of most distinctive attributes per KB whose
	// literal values serve as entity names for H1.
	NameK int
	// Theta trades value-based (θ) against neighbor-based (1-θ)
	// normalized ranks in H3.
	Theta float64
	// Purge configures the BlockPurging stage.
	Purge blocking.PurgeConfig
	// Workers bounds the goroutines used inside parallel stages.
	// 0 selects GOMAXPROCS. Results are identical at any setting.
	Workers int
	// Strategy selects the pair-quality scheduler of streaming runs
	// (RunStream). Batch plans ignore it.
	Strategy StreamStrategy
}

func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// State is the blackboard a stage plan reads from and writes to. Each
// stage consumes the artifacts of earlier stages and publishes its own;
// a stage whose inputs are missing fails with a descriptive error
// instead of computing on nil evidence.
type State struct {
	// Inputs, set by NewState.
	KB1, KB2 *kb.KB
	Params   Params

	// Blocking artifacts.
	NameBlocks  *blocking.Collection // B_N, set by StageNameBlocking
	TokenBlocks *blocking.Collection // B_T, set by StageTokenBlocking, purged in place by StageBlockPurging
	TokenIndex  *blocking.Index      // entity -> token blocks, set by StageBlockIndexing
	PurgeStats  blocking.PurgeResult // what purging removed

	// Block accounting (the Table II numbers of one run).
	NameBlockCount, TokenBlockCount   int
	NameComparisons, TokenComparisons int64

	// Evidence artifacts.
	Weights                        []float64 // ARCS weight per token block, set by StageTokenWeighting
	ValueCands1, ValueCands2       [][]Cand  // top-K value candidates per entity, set by StageValueCandidates
	NeighborCands1, NeighborCands2 [][]Cand  // top-K neighbor candidates per entity, set by StageNeighborCandidates

	// Matching artifacts. The maps record which entities each heuristic
	// claimed so later heuristics skip them; pair slices keep the
	// per-heuristic contributions for reporting.
	H1Map1, H1Map2     map[kb.EntityID]kb.EntityID // 1-1 name matches, set by StageNameMatching
	H2TakenA, H2TakenB map[kb.EntityID]struct{}    // H2 claims, keyed by emission side
	H1, H2, H3         []eval.Pair

	// Output.
	Matches       []eval.Pair // set by StageUnion, filtered in place by StageReciprocity
	DiscardedByH4 int

	// unionDone marks that StageUnion ran, distinguishing "no matches"
	// from "union never computed" for Reciprocity's precondition.
	unionDone bool

	// sides holds the run's two one-sided blocking substrates from the
	// first blocking stage until both collections are joined.
	sides [2]*blocking.Prepared

	// delta, when non-nil, marks a prepared-side run (NewDeltaState)
	// and is its frozen side.
	delta *Prepared

	// lazy1, set by a delta run's candidate stages, stands in for
	// ValueCands1 and NeighborCands1: it fills side 1's lists for just
	// the entities the matching stages touch.
	lazy1 *lazySide

	// update, when non-nil, marks an epoch-update run (NewUpdateState):
	// the blocking substrates are patched rather than rebuilt and the
	// candidate stages recompute only the affected entities.
	update *updateSide
}

// NewState prepares the blackboard for one run over a KB pair.
func NewState(kb1, kb2 *kb.KB, p Params) *State {
	return &State{
		KB1:    kb1,
		KB2:    kb2,
		Params: p,
		H1Map1: make(map[kb.EntityID]kb.EntityID),
		H1Map2: make(map[kb.EntityID]kb.EntityID),
	}
}

// blockingSides returns the run's two one-sided substrates, deriving
// them on first use, one way per engine. A batch run builds side 1 in
// full and side 2 bounded by it, so side 2 holds only keys that can
// form a block. A prepared-side run's side 1 is its frozen substrate,
// and the delta's side 2 builds serially, bounded by it. An update run
// patches the previous epoch's two substrates (updateSide.patchSides).
func (s *State) blockingSides() [2]*blocking.Prepared {
	if s.sides[0] == nil && s.update != nil {
		s.sides = s.update.patchSides(s.KB1, s.KB2, s.Params)
	}
	if s.sides[0] == nil {
		w := s.Params.workers()
		var p1 *blocking.Prepared
		if s.delta != nil {
			p1, w = s.delta.Blocks, 1
		} else {
			p1 = blocking.Prepare(s.KB1, s.Params.NameK, w, nil)
		}
		s.sides = [2]*blocking.Prepared{p1, blocking.Prepare(s.KB2, s.Params.NameK, w, p1)}
	}
	return s.sides
}

// releaseSides drops the substrates once both collections are joined:
// the blocks share their member slices, the rest is garbage.
func (s *State) releaseSides() {
	if s.NameBlocks != nil && s.TokenBlocks != nil {
		s.sides = [2]*blocking.Prepared{}
	}
}

// emission describes which KB the matching heuristics emit decisions
// for: the smaller one, as in the paper ("every entity e_i of the
// smaller in size KB"). The other side's evidence still feeds H4.
type emission struct {
	swap     bool // true when KB2 is the smaller side
	sizeA    int  // entities on the emitting side
	sizeB    int  // entities on the other side
	h1A, h1B map[kb.EntityID]kb.EntityID
	h2A, h2B map[kb.EntityID]struct{}
}

func (s *State) emission() emission {
	e := emission{
		swap:  s.KB2.Len() < s.KB1.Len(),
		sizeA: s.KB1.Len(),
		sizeB: s.KB2.Len(),
		h1A:   s.H1Map1,
		h1B:   s.H1Map2,
		h2A:   s.H2TakenA,
		h2B:   s.H2TakenB,
	}
	if e.swap {
		e.sizeA, e.sizeB = e.sizeB, e.sizeA
		e.h1A, e.h1B = s.H1Map2, s.H1Map1
	}
	return e
}

// haveValueCands reports whether value evidence is available on both
// sides: materialized arrays, or a delta run's lazy side 1.
func (s *State) haveValueCands() bool {
	return s.ValueCands2 != nil && (s.ValueCands1 != nil || s.lazy1 != nil)
}

// haveNeighborCands is haveValueCands for neighbor evidence.
func (s *State) haveNeighborCands() bool {
	return s.NeighborCands2 != nil && (s.NeighborCands1 != nil || s.lazy1 != nil)
}

// pair orients an (emitter, other) decision into canonical (E1, E2)
// order.
func (e emission) pair(a, b kb.EntityID) eval.Pair {
	if e.swap {
		return eval.Pair{E1: b, E2: a}
	}
	return eval.Pair{E1: a, E2: b}
}
