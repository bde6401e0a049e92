package pipeline

import (
	"context"
	"testing"
)

// TestUpdateAllocatesAccumulatorsOnlyForAffectedChunks: a mutation that
// affects a handful of entities must not pay a dense accumulator (one
// float per opposite-side entity) in every worker chunk of both
// candidate stages.
func TestUpdateAllocatesAccumulatorsOnlyForAffectedChunks(t *testing.T) {
	const n, workers = 4096, 32
	p := testParams()
	p.Workers = workers
	ctx := context.Background()
	kb1, old2 := testKBs(t, n)
	// Entity 100 of the second KB trades its distinctive token for its
	// neighbor's: two token blocks change members, four entities' sums move.
	new2 := chainKB(t, "b", "http://v/title", "http://v/rel", n, map[int]string{100: "entity number 0101 omega"})

	base := runPlan(t, DefaultPlan(), NewState(kb1, old2, p))
	prev, err := NewCache(ctx, base, base.NameBlocks, base.PurgeStats)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUpdateState(prev, kb1, old2, kb1, new2, p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := (&Engine{Plan: UpdatePatchPlan(), Progress: func(ProgressEvent) {}}).Run(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2, n1, n2 := st.UpdateCounters()
	if v1 == 0 || v2 == 0 || n1+n2 == 0 {
		t.Fatalf("mutation affected (%d,%d) value and (%d,%d) neighbor lists; the test needs some on each stage", v1, v2, n1, n2)
	}
	if affected := v1 + v2 + n1 + n2; affected > workers/2 {
		t.Fatalf("%d affected entities: too many to leave most of %d chunks untouched", affected, workers)
	}
	// One side's accumulators, were every chunk to allocate one. Both
	// stages run two sides, so the eager allocation is twice this; the
	// lazy one is a few chunks' worth plus the output arrays.
	eagerSide := uint64(workers * n * 8)
	for _, stat := range stats {
		if stat.Stage != StageValueCandidates && stat.Stage != StageNeighborCandidates {
			continue
		}
		if stat.AllocBytes >= eagerSide {
			t.Errorf("stage %s allocated %d bytes, want well under %d (a dense accumulator per chunk of one side)",
				stat.Stage, stat.AllocBytes, eagerSide)
		}
	}
}
