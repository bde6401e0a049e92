package blocking

import (
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// Stats reports the quality and cost of a block collection, matching the
// rows of Table II in the paper.
type Stats struct {
	Blocks              int     // |B|
	Comparisons         int64   // ||B|| with multiplicity
	DistinctComparisons int64   // distinct cross-KB pairs suggested
	PairsFound          int     // ground-truth pairs co-occurring in ≥1 block
	Recall              float64 // PC: PairsFound / |ground truth|
	Precision           float64 // PQ: PairsFound / DistinctComparisons
	F1                  float64
}

// ComputeStats scans the collection once, counting distinct suggested
// pairs with a stamp array (O(|E2|) memory) and probing the ground
// truth.
func ComputeStats(c *Collection, gt *eval.GroundTruth) Stats {
	st := Stats{Blocks: c.Size(), Comparisons: c.Comparisons()}
	idx := c.BuildIndex()
	stamps := make([]int32, c.n2)
	for i := range stamps {
		stamps[i] = -1
	}
	for e1 := 0; e1 < c.n1; e1++ {
		blockIDs := idx.ByE1.Of(kb.EntityID(e1))
		if len(blockIDs) == 0 {
			continue
		}
		want, inGT := gt.Match1(kb.EntityID(e1))
		for _, bi := range blockIDs {
			for _, e2 := range c.Blocks[bi].E2 {
				if stamps[e2] == int32(e1) {
					continue
				}
				stamps[e2] = int32(e1)
				st.DistinctComparisons++
				if inGT && e2 == want {
					st.PairsFound++
				}
			}
		}
	}
	if gt.Len() > 0 {
		st.Recall = float64(st.PairsFound) / float64(gt.Len())
	}
	if st.DistinctComparisons > 0 {
		st.Precision = float64(st.PairsFound) / float64(st.DistinctComparisons)
	}
	if st.Precision+st.Recall > 0 {
		st.F1 = 2 * st.Precision * st.Recall / (st.Precision + st.Recall)
	}
	return st
}
