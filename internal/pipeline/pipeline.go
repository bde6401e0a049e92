// Package pipeline decomposes the MinoanER matching process into
// composable, instrumented, cancellable stages. A plan — an ordered
// list of Stage values over a shared State — starts from two built KBs
// (parsing and KB assembly belong to internal/kb's Builder) and is
// executed by an Engine that records per-stage wall-clock and
// allocation statistics, honors context cancellation between and
// inside stages, and reports progress through a callback.
//
// The default plan (DefaultPlan) is bit-for-bit equivalent to the
// original composition at any worker count. Ablations and new
// workloads edit the plan instead of threading flags through the run
// loop: Drop removes a heuristic, Replace swaps an implementation
// (e.g. KeepAllBlocks for BlockPurging), Until truncates the plan
// after a prefix (e.g. blocking only).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Stage is one step of a matching plan. A stage reads its inputs from
// the State, validates they are present, and publishes its outputs
// back onto it. Run returns ctx.Err() promptly when the context is
// cancelled; long loops inside a stage check cancellation themselves.
type Stage interface {
	Name() string
	Run(ctx context.Context, st *State) error
}

// stageFunc adapts a named function to the Stage interface.
type stageFunc struct {
	name string
	run  func(ctx context.Context, st *State) error
}

func (s stageFunc) Name() string                             { return s.name }
func (s stageFunc) Run(ctx context.Context, st *State) error { return s.run(ctx, st) }
func newStage(name string, run func(context.Context, *State) error) Stage {
	return stageFunc{name: name, run: run}
}

// StageStat records the execution of one stage.
type StageStat struct {
	// Stage is the stage's name.
	Stage string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// AllocBytes is the heap allocated during the stage (process-wide
	// TotalAlloc delta: approximate under concurrent allocators, exact
	// in a single-run process). Zero unless the Engine has a Progress
	// callback.
	AllocBytes uint64
}

// ProgressEvent notifies a Progress callback that a stage started
// (Done=false) or finished (Done=true, Stat valid).
type ProgressEvent struct {
	// Stage is the stage's name.
	Stage string
	// Index and Total locate the stage in the plan (Index is 0-based).
	Index, Total int
	// Done distinguishes the completion event from the start event.
	Done bool
	// Stat is the stage's statistics; valid only when Done.
	Stat StageStat
}

// Progress observes stage boundaries. Callbacks run synchronously on
// the engine's goroutine; keep them cheap.
type Progress func(ProgressEvent)

// Engine executes a stage plan over a State.
type Engine struct {
	// Plan is the ordered stage list to run.
	Plan []Stage
	// Progress, when non-nil, is invoked at every stage boundary, and
	// the run then also accounts per-stage allocation, at the price of
	// two runtime.ReadMemStats calls per stage (their latency grows with
	// live heap size). Unobserved runs leave StageStat.AllocBytes zero.
	Progress Progress
}

// Run executes the plan. It checks cancellation before every stage and
// returns the first error — ctx.Err() on cancellation — leaving the
// State as the failed stage left it; callers must not derive a Result
// from a failed run. On success it returns one StageStat per stage in
// plan order.
func (e *Engine) Run(ctx context.Context, st *State) ([]StageStat, error) {
	stats := make([]StageStat, 0, len(e.Plan))
	var ms runtime.MemStats
	for i, stage := range e.Plan {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.Progress != nil {
			e.Progress(ProgressEvent{Stage: stage.Name(), Index: i, Total: len(e.Plan)})
		}
		var alloc0 uint64
		if e.Progress != nil {
			runtime.ReadMemStats(&ms)
			alloc0 = ms.TotalAlloc
		}
		//minoaner:wallclock stage timing instrumentation; durations go to StageStat and never feed match output
		start := time.Now()
		if err := stage.Run(ctx, st); err != nil {
			// Cancellation surfaces as the bare context error so callers
			// can compare against ctx.Err() directly, as documented.
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("pipeline: stage %s: %w", stage.Name(), err)
		}
		stat := StageStat{
			Stage: stage.Name(),
			//minoaner:wallclock stage timing instrumentation; durations go to StageStat and never feed match output
			Duration: time.Since(start),
		}
		if e.Progress != nil {
			runtime.ReadMemStats(&ms)
			stat.AllocBytes = ms.TotalAlloc - alloc0
		}
		stats = append(stats, stat)
		if e.Progress != nil {
			e.Progress(ProgressEvent{Stage: stage.Name(), Index: i, Total: len(e.Plan), Done: true, Stat: stat})
		}
	}
	return stats, nil
}

// Names returns the stage names of a plan in order.
//
//minoaner:keep plan-edit API beside Drop and Replace; pipeline's plan tests read plans with it
func Names(plan []Stage) []string {
	out := make([]string, len(plan))
	for i, s := range plan {
		out[i] = s.Name()
	}
	return out
}

// Drop returns a copy of the plan without the named stages. Unknown
// names are ignored, so ablations compose freely.
func Drop(plan []Stage, names ...string) []Stage {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	out := make([]Stage, 0, len(plan))
	for _, s := range plan {
		if drop[s.Name()] {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Replace returns a copy of the plan with every stage of the given
// name substituted by the replacement (which keeps the replacement's
// own name). The plan is returned unchanged if the name is absent.
func Replace(plan []Stage, name string, with Stage) []Stage {
	out := make([]Stage, len(plan))
	for i, s := range plan {
		if s.Name() == name {
			out[i] = with
		} else {
			out[i] = s
		}
	}
	return out
}

// Until returns the prefix of the plan up to and including the named
// stage, or the whole plan if the name is absent.
//
//minoaner:keep plan-edit API beside Drop and Replace (README); pipeline's tests cut plans with it
func Until(plan []Stage, name string) []Stage {
	for i, s := range plan {
		if s.Name() == name {
			return append([]Stage(nil), plan[:i+1]...)
		}
	}
	return append([]Stage(nil), plan...)
}
