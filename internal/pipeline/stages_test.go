package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

func testParams() Params {
	return Params{K: 15, N: 3, NameK: 2, Theta: 0.6, Purge: blocking.DefaultPurgeConfig()}
}

// testKBs builds two linked KBs large enough that every stage has real
// work: paired entities share a distinctive name and a chain relation.
func testKBs(t testing.TB, n int) (*kb.KB, *kb.KB) {
	t.Helper()
	return chainKB(t, "a", "http://v/name", "http://v/link", n, nil),
		chainKB(t, "b", "http://v/title", "http://v/rel", n, nil)
}

// chainKB is one side of testKBs: entity i is named "entity number i
// omega" (or rename[i]) and links to entity i-1.
func chainKB(t testing.TB, ns, namePred, linkPred string, n int, rename map[int]string) *kb.KB {
	t.Helper()
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://%s/e%04d", ns, i))
		name, ok := rename[i]
		if !ok {
			name = fmt.Sprintf("entity number %04d omega", i)
		}
		ts = append(ts, rdf.NewTriple(s, rdf.NewIRI(namePred), rdf.NewLiteral(name)))
		if i > 0 {
			ts = append(ts, rdf.NewTriple(s, rdf.NewIRI(linkPred), rdf.NewIRI(fmt.Sprintf("http://%s/e%04d", ns, i-1))))
		}
	}
	k, err := kb.FromTriples(ns, ts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func runPlan(t testing.TB, plan []Stage, st *State) *State {
	t.Helper()
	if _, err := (&Engine{Plan: plan}).Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDefaultPlanDeterministicAcrossWorkers(t *testing.T) {
	kb1, kb2 := testKBs(t, 120)
	var base *State
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		p := testParams()
		p.Workers = workers
		st := runPlan(t, DefaultPlan(), NewState(kb1, kb2, p))
		if len(st.Matches) == 0 {
			t.Fatalf("workers=%d: no matches", workers)
		}
		if base == nil {
			base = st
			continue
		}
		if !reflect.DeepEqual(st.Matches, base.Matches) {
			t.Errorf("workers=%d changed Matches", workers)
		}
		if !reflect.DeepEqual(st.H1, base.H1) || !reflect.DeepEqual(st.H2, base.H2) || !reflect.DeepEqual(st.H3, base.H3) {
			t.Errorf("workers=%d changed per-heuristic pairs", workers)
		}
	}
}

// TestCancellationMidStage cancels the context while the value
// candidate stage is running and verifies the engine surfaces ctx.Err()
// without completing the plan.
func TestCancellationMidStage(t *testing.T) {
	kb1, kb2 := testKBs(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	st := NewState(kb1, kb2, testParams())
	eng := Engine{
		Plan: DefaultPlan(),
		Progress: func(ev ProgressEvent) {
			if ev.Stage == StageValueCandidates && !ev.Done {
				cancel()
			}
		},
	}
	stats, err := eng.Run(ctx, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats != nil {
		t.Error("stats returned despite cancellation")
	}
	if st.Matches != nil || st.unionDone {
		t.Error("cancelled run produced matches")
	}
}

func TestParallelStagesReturnContextError(t *testing.T) {
	kb1, kb2 := testKBs(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the parallel loops must notice
	st := NewState(kb1, kb2, testParams())
	prefix := Until(DefaultPlan(), StageTokenWeighting)
	if _, err := (&Engine{Plan: prefix}).Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []Stage{ValueCandidates()} {
		if err := stage.Run(ctx, st); !errors.Is(err, context.Canceled) {
			t.Errorf("stage %q: err = %v, want context.Canceled", stage.Name(), err)
		}
	}
}

// TestKeepAllBlocksMatchesNoPurgeConfig: the stage replacement and the
// NoPurge parameterization are two spellings of the same ablation.
func TestKeepAllBlocksMatchesNoPurgeConfig(t *testing.T) {
	kb1, kb2 := testKBs(t, 80)

	replaced := runPlan(t, Replace(DefaultPlan(), StageBlockPurging, KeepAllBlocks()),
		NewState(kb1, kb2, testParams()))

	p := testParams()
	p.Purge = blocking.NoPurge()
	configured := runPlan(t, DefaultPlan(), NewState(kb1, kb2, p))

	if !reflect.DeepEqual(replaced.Matches, configured.Matches) {
		t.Errorf("KeepAllBlocks diverged from NoPurge config: %d vs %d matches",
			len(replaced.Matches), len(configured.Matches))
	}
	if replaced.TokenBlockCount != configured.TokenBlockCount {
		t.Errorf("block counts differ: %d vs %d", replaced.TokenBlockCount, configured.TokenBlockCount)
	}
	if replaced.PurgeStats.RemovedBlocks != 0 {
		t.Errorf("KeepAllBlocks reported %d removed blocks", replaced.PurgeStats.RemovedBlocks)
	}
}

// TestUnionWithoutReciprocity: dropping H4 leaves the deduplicated
// heuristic union as the final output.
func TestUnionWithoutReciprocity(t *testing.T) {
	kb1, kb2 := testKBs(t, 60)
	st := runPlan(t, Drop(DefaultPlan(), StageReciprocity), NewState(kb1, kb2, testParams()))
	if st.DiscardedByH4 != 0 {
		t.Errorf("H4 ran despite being dropped: %d discards", st.DiscardedByH4)
	}
	union := map[any]struct{}{}
	for _, p := range st.H1 {
		union[p] = struct{}{}
	}
	for _, p := range st.H2 {
		union[p] = struct{}{}
	}
	for _, p := range st.H3 {
		union[p] = struct{}{}
	}
	if len(st.Matches) != len(union) {
		t.Errorf("Matches = %d pairs, union = %d", len(st.Matches), len(union))
	}
}

func TestBlockingPrefixForNewWorkloads(t *testing.T) {
	// A truncated plan exposes the purged token collection without
	// matching, and without paying for the entity index.
	kb1, kb2 := testKBs(t, 60)
	st := runPlan(t, Until(DefaultPlan(), StageBlockPurging), NewState(kb1, kb2, testParams()))
	if st.TokenBlocks == nil {
		t.Fatal("blocking prefix left no token collection")
	}
	if st.TokenIndex != nil {
		t.Error("blocking prefix paid for the entity index it does not use")
	}
	if st.ValueCands1 != nil || st.Matches != nil {
		t.Error("blocking prefix ran matching stages")
	}
}
