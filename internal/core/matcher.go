package core

import (
	"context"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
)

// Result reports the matches and the per-stage accounting of one
// MinoanER run.
type Result struct {
	// Matches is the final output M = (H1 ∨ H2 ∨ H3) ∧ H4, sorted by
	// (E1, E2).
	Matches []eval.Pair
	// H1, H2, H3 are the per-heuristic contributions before H4.
	H1, H2, H3 []eval.Pair
	// DiscardedByH4 counts pairs removed by the reciprocity filter.
	DiscardedByH4 int
	// NameBlockCount and TokenBlockCount are |B_N| and |B_T| (the latter
	// after purging).
	NameBlockCount, TokenBlockCount int
	// NameComparisons and TokenComparisons are ||B_N|| and ||B_T||.
	NameComparisons, TokenComparisons int64
	// Purge describes what Block Purging removed from B_T.
	Purge blocking.PurgeResult
	// Stages holds the per-stage wall-clock and allocation statistics of
	// the executed plan, in plan order.
	Stages []pipeline.StageStat
}

// Matcher plans and runs the MinoanER process for one pair of KBs. It
// is a thin builder over internal/pipeline: the matching flow itself
// lives in the stages; Matcher only assembles the plan its
// configuration calls for and translates the final State into a
// Result.
type Matcher struct {
	kb1, kb2 *kb.KB
	cfg      Config
}

// NewMatcher validates the configuration and prepares a matcher.
func NewMatcher(kb1, kb2 *kb.KB, cfg Config) (*Matcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Matcher{kb1: kb1, kb2: kb2, cfg: cfg}, nil
}

// Plan returns the stage plan Run executes: the full MinoanER
// composition with the stages switched off by the Disable flags
// dropped. Callers may edit the returned plan (pipeline.Drop,
// pipeline.Replace, pipeline.Until) before passing it to RunPlan.
func (m *Matcher) Plan() []pipeline.Stage {
	return PlanFor(m.cfg)
}

// PlanFor builds the matching plan a configuration calls for, without
// needing built KBs: the full composition with the stages switched off
// by the Disable flags dropped.
func PlanFor(cfg Config) []pipeline.Stage {
	return dropDisabled(pipeline.DefaultPlan(), cfg)
}

// DeltaPlanFor is PlanFor for prepared-side runs: the delta plan with
// the same ablation drops, so an index built without a heuristic
// queries without it too.
func DeltaPlanFor(cfg Config) []pipeline.Stage {
	return dropDisabled(pipeline.DeltaPlan(), cfg)
}

// dropDisabled applies the Disable flags to a plan as stage drops.
func dropDisabled(plan []pipeline.Stage, cfg Config) []pipeline.Stage {
	if cfg.DisableH1 {
		plan = pipeline.Drop(plan, pipeline.StageNameMatching)
	}
	if cfg.DisableH2 {
		plan = pipeline.Drop(plan, pipeline.StageValueMatching)
	}
	if cfg.DisableH3 {
		plan = pipeline.Drop(plan, pipeline.StageRankAggregation)
	}
	if cfg.DisableH4 {
		plan = pipeline.Drop(plan, pipeline.StageReciprocity)
	}
	return plan
}

// Run executes the non-iterative matching process. It is deterministic:
// identical inputs produce identical results at any worker count.
func (m *Matcher) Run() *Result {
	res, err := m.RunContext(context.Background())
	if err != nil {
		// The default plan cannot fail on its own and the background
		// context is never cancelled.
		panic(err)
	}
	return res
}

// RunContext executes the configured plan under a context. A cancelled
// context aborts between stages and inside the parallel candidate
// loops, returning ctx.Err() and no Result.
func (m *Matcher) RunContext(ctx context.Context) (*Result, error) {
	return m.RunPlan(ctx, m.Plan(), nil)
}

// RunPlan executes an arbitrary stage plan, reporting stage boundaries
// to the optional progress callback. Plans are typically Plan() output
// edited with the pipeline helpers; preconditions between stages are
// validated by the stages themselves. Per-stage allocation deltas are
// recorded only for runs observed through a progress callback (see
// pipeline.Engine); the same holds for RunDelta and RunUpdate.
func (m *Matcher) RunPlan(ctx context.Context, plan []pipeline.Stage, progress pipeline.Progress) (*Result, error) {
	st := pipeline.NewState(m.kb1, m.kb2, m.cfg.Params())
	eng := pipeline.Engine{Plan: plan, Progress: progress}
	stats, err := eng.Run(ctx, st)
	if err != nil {
		return nil, err
	}
	return resultFromState(st, stats), nil
}

// RunDelta resolves a delta KB against a prepared left side: the
// delta-plan counterpart of RunPlan. The substrate must have been
// built (pipeline.PrepareSide) under the same NameK and N as cfg, and
// the delta must be strictly smaller than the prepared KB; violations
// surface as errors rather than wrong answers. The result is
// bit-identical to the full plan over (prepared KB, delta).
func RunDelta(ctx context.Context, prep *pipeline.Prepared, delta *kb.KB, cfg Config, progress pipeline.Progress) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := pipeline.NewDeltaState(prep, delta, cfg.Params())
	if err != nil {
		return nil, err
	}
	defer st.Release()
	eng := pipeline.Engine{Plan: DeltaPlanFor(cfg), Progress: progress}
	stats, err := eng.Run(ctx, st)
	if err != nil {
		return nil, err
	}
	return resultFromState(st, stats), nil
}

// UpdatePlanFor is PlanFor for epoch-update runs: the update plan with
// the same ablation drops, so a mutable index built without a
// heuristic stays without it across mutations.
func UpdatePlanFor(cfg Config) []pipeline.Stage {
	return dropDisabled(pipeline.UpdatePlan(), cfg)
}

// RunUpdate absorbs one KB mutation into a resolved pair: prev is the
// previous epoch's scoring substrate over (old1, old2), and the run
// produces the result — and the next substrate — for the mutated pair
// (new1, new2). An unmutated side passes the same KB for old and new.
// The result is bit-identical to the full plan over (new1, new2).
func RunUpdate(ctx context.Context, prev *pipeline.Cache, old1, old2, new1, new2 *kb.KB, cfg Config, progress pipeline.Progress) (*Result, *pipeline.Cache, error) {
	res, st, err := runUpdate(ctx, prev, old1, old2, new1, new2, cfg, progress)
	if err != nil {
		return nil, nil, err
	}
	return res, st.UpdatedCache(), nil
}

// runUpdate is RunUpdate returning the finished update state, whose
// work counters (UpdateCounters, EvidenceUnchanged) the tests read.
func runUpdate(ctx context.Context, prev *pipeline.Cache, old1, old2, new1, new2 *kb.KB, cfg Config, progress pipeline.Progress) (*Result, *pipeline.State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	st, err := pipeline.NewUpdateState(prev, old1, old2, new1, new2, cfg.Params())
	if err != nil {
		return nil, nil, err
	}
	eng := pipeline.Engine{Plan: pipeline.UpdatePatchPlan(), Progress: progress}
	stats, err := eng.Run(ctx, st)
	if err != nil {
		return nil, nil, err
	}
	if st.EvidenceUnchanged() {
		// Every matching input is the previous epoch's, verbatim; the
		// heuristics would reproduce the previous outputs bit for bit.
		st.AdoptPrevMatches()
	} else {
		eng = pipeline.Engine{Plan: dropDisabled(pipeline.UpdateMatchPlan(), cfg), Progress: progress}
		matchStats, err := eng.Run(ctx, st)
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, matchStats...)
	}
	st.UpdatedCache().SetMatches(st.H1, st.H2, st.H3, st.Matches, st.DiscardedByH4)
	return resultFromState(st, stats), st, nil
}

// PrimeCache builds the scoring substrate a mutable index needs from
// its resolved artifacts (the KBs and the purged token collection plus
// B_N) — the one-time cost paid before the first mutation.
func PrimeCache(ctx context.Context, kb1, kb2 *kb.KB, nameBlocks, tokenBlocks *blocking.Collection, purge blocking.PurgeResult, cfg Config) (*pipeline.Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := pipeline.NewState(kb1, kb2, cfg.Params())
	st.NameBlocks = nameBlocks
	st.TokenBlocks = tokenBlocks
	return pipeline.NewCache(ctx, st, nameBlocks, purge)
}

func resultFromState(st *pipeline.State, stats []pipeline.StageStat) *Result {
	return &Result{
		Matches:          st.Matches,
		H1:               st.H1,
		H2:               st.H2,
		H3:               st.H3,
		DiscardedByH4:    st.DiscardedByH4,
		NameBlockCount:   st.NameBlockCount,
		TokenBlockCount:  st.TokenBlockCount,
		NameComparisons:  st.NameComparisons,
		TokenComparisons: st.TokenComparisons,
		Purge:            st.PurgeStats,
		Stages:           stats,
	}
}
