// Package metablocking implements Meta-blocking (Papadakis, Koutrika,
// Palpanas, Nejdl — TKDE 2014, the paper's reference [6]): restructuring
// a block collection into a weighted blocking graph whose edges connect
// co-occurring entities, then pruning low-weight edges to discard
// comparisons that are unlikely to be matches.
//
// MinoanER itself uses Block Purging only, but its valueSim is "a
// variation of ARCS" — one of the meta-blocking edge weighting schemes
// implemented here. The package makes the lineage concrete and enables
// the purging-vs-meta-blocking ablation in EXPERIMENTS.md.
//
// Weighting schemes:
//
//   - CBS  (Common Blocks Scheme): number of blocks the pair shares
//   - ECBS (Enhanced CBS): CBS · log(|B|/|B_i|) · log(|B|/|B_j|)
//   - JS   (Jaccard Scheme): shared blocks / (|B_i| + |B_j| - shared)
//   - ARCS (Aggregate Reciprocal Comparisons): Σ 1/||b|| over shared blocks
//
// Pruning algorithms:
//
//   - WEP (Weighted Edge Pruning): keep edges above the global mean weight
//   - CEP (Cardinality Edge Pruning): keep the globally top-k edges
//   - WNP (Weighted Node Pruning): per node, keep edges above the node's mean
//   - CNP (Cardinality Node Pruning): per node, keep the top-k edges
package metablocking

import (
	"math"
	"sort"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// Scheme selects the edge weighting function.
type Scheme uint8

const (
	// CBS counts the blocks shared by the pair.
	CBS Scheme = iota
	// ECBS discounts entities that appear in many blocks.
	ECBS
	// JS is the Jaccard coefficient of the two entities' block lists.
	JS
	// ARCS rewards pairs sharing small (discriminative) blocks.
	ARCS
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case CBS:
		return "CBS"
	case ECBS:
		return "ECBS"
	case JS:
		return "JS"
	case ARCS:
		return "ARCS"
	default:
		return "Scheme(?)"
	}
}

// AllSchemes lists every weighting scheme.
var AllSchemes = []Scheme{CBS, ECBS, JS, ARCS}

// Algorithm selects the pruning strategy.
type Algorithm uint8

const (
	// WEP keeps edges whose weight exceeds the global mean.
	WEP Algorithm = iota
	// CEP keeps the top-k edges globally, k = half the total block
	// assignments (the paper's BC/2 heuristic).
	CEP
	// WNP keeps, per entity, the edges above that entity's mean weight.
	WNP
	// CNP keeps, per entity, the top-k edges, k derived from the
	// average number of block assignments per entity.
	CNP
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case WEP:
		return "WEP"
	case CEP:
		return "CEP"
	case WNP:
		return "WNP"
	case CNP:
		return "CNP"
	default:
		return "Algorithm(?)"
	}
}

// AllAlgorithms lists every pruning algorithm.
var AllAlgorithms = []Algorithm{WEP, CEP, WNP, CNP}

// Edge is one weighted comparison of the blocking graph.
type Edge struct {
	Pair   eval.Pair
	Weight float64
}

// Graph is the weighted blocking graph of a block collection: one edge
// per distinct co-occurring cross-KB pair.
type Graph struct {
	Edges []Edge
	n1    int
	n2    int
	// blocks per entity, needed by ECBS/JS.
	blockCount1, blockCount2 []int32
	totalBlocks              int
	assignments              int64
}

// BuildGraph materializes the blocking graph under the given weighting
// scheme. Memory is O(distinct pairs); pairs are enumerated per
// first-KB entity with a stamp array.
func BuildGraph(c *blocking.Collection, scheme Scheme) *Graph {
	n1, n2 := c.KBSizes()
	g := &Graph{
		n1: n1, n2: n2,
		blockCount1: make([]int32, n1),
		blockCount2: make([]int32, n2),
		totalBlocks: c.Size(),
	}
	idx := c.BuildIndex()
	for e := 0; e < n1; e++ {
		n := len(idx.ByE1.Of(kb.EntityID(e)))
		g.blockCount1[e] = int32(n)
		g.assignments += int64(n)
	}
	for e := 0; e < n2; e++ {
		n := len(idx.ByE2.Of(kb.EntityID(e)))
		g.blockCount2[e] = int32(n)
		g.assignments += int64(n)
	}

	// Accumulate per-pair statistics: shared-block count and ARCS sum.
	type acc struct {
		shared int32
		arcs   float64
	}
	stamps := make([]int32, n2)
	accs := make([]acc, n2)
	for i := range stamps {
		stamps[i] = -1
	}
	for e1 := 0; e1 < n1; e1++ {
		blockIDs := idx.ByE1.Of(kb.EntityID(e1))
		if len(blockIDs) == 0 {
			continue
		}
		var touched []int32
		for _, bi := range blockIDs {
			b := &c.Blocks[bi]
			inv := 1 / float64(b.Comparisons())
			for _, e2 := range b.E2 {
				if stamps[e2] != int32(e1) {
					stamps[e2] = int32(e1)
					accs[e2] = acc{}
					touched = append(touched, int32(e2))
				}
				accs[e2].shared++
				accs[e2].arcs += inv
			}
		}
		sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
		for _, e2 := range touched {
			a := accs[e2]
			w := g.weight(scheme, kb.EntityID(e1), kb.EntityID(e2), a.shared, a.arcs)
			g.Edges = append(g.Edges, Edge{
				Pair:   eval.Pair{E1: kb.EntityID(e1), E2: kb.EntityID(e2)},
				Weight: w,
			})
		}
	}
	return g
}

func (g *Graph) weight(scheme Scheme, e1, e2 kb.EntityID, shared int32, arcs float64) float64 {
	switch scheme {
	case CBS:
		return float64(shared)
	case ECBS:
		b1 := float64(g.blockCount1[e1])
		b2 := float64(g.blockCount2[e2])
		if b1 == 0 || b2 == 0 {
			return 0
		}
		total := float64(g.totalBlocks)
		return float64(shared) * math.Log(total/b1+1) * math.Log(total/b2+1)
	case JS:
		union := float64(g.blockCount1[e1]) + float64(g.blockCount2[e2]) - float64(shared)
		if union == 0 {
			return 0
		}
		return float64(shared) / union
	case ARCS:
		return arcs
	default:
		return 0
	}
}

// Prune applies the algorithm and returns the retained comparisons.
func (g *Graph) Prune(algo Algorithm) []eval.Pair {
	switch algo {
	case WEP:
		return g.pruneWEP()
	case CEP:
		return g.pruneCEP()
	case WNP:
		return g.pruneWNP()
	case CNP:
		return g.pruneCNP()
	default:
		return nil
	}
}

func (g *Graph) pruneWEP() []eval.Pair {
	if len(g.Edges) == 0 {
		return nil
	}
	var sum float64
	for _, e := range g.Edges {
		sum += e.Weight
	}
	mean := sum / float64(len(g.Edges))
	var out []eval.Pair
	for _, e := range g.Edges {
		if e.Weight > mean {
			out = append(out, e.Pair)
		}
	}
	return out
}

func (g *Graph) pruneCEP() []eval.Pair {
	if len(g.Edges) == 0 {
		return nil
	}
	k := int(g.assignments / 2)
	if k < 1 {
		k = 1
	}
	if k > len(g.Edges) {
		k = len(g.Edges)
	}
	sorted := make([]Edge, len(g.Edges))
	copy(sorted, g.Edges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Weight != sorted[j].Weight {
			return sorted[i].Weight > sorted[j].Weight
		}
		return sorted[i].Pair.Less(sorted[j].Pair)
	})
	out := make([]eval.Pair, 0, k)
	for _, e := range sorted[:k] {
		out = append(out, e.Pair)
	}
	eval.SortPairs(out)
	return out
}

// nodeEdges groups edge indices by entity for the node-centric
// algorithms; both sides of every edge act as nodes.
func (g *Graph) nodeEdges() (by1 [][]int32, by2 [][]int32) {
	by1 = make([][]int32, g.n1)
	by2 = make([][]int32, g.n2)
	for i, e := range g.Edges {
		by1[e.Pair.E1] = append(by1[e.Pair.E1], int32(i))
		by2[e.Pair.E2] = append(by2[e.Pair.E2], int32(i))
	}
	return by1, by2
}

func (g *Graph) pruneWNP() []eval.Pair {
	by1, by2 := g.nodeEdges()
	keep := make(map[int32]struct{})
	retain := func(edgeIDs []int32) {
		if len(edgeIDs) == 0 {
			return
		}
		var sum float64
		for _, i := range edgeIDs {
			sum += g.Edges[i].Weight
		}
		mean := sum / float64(len(edgeIDs))
		for _, i := range edgeIDs {
			if g.Edges[i].Weight >= mean {
				keep[i] = struct{}{}
			}
		}
	}
	for _, ids := range by1 {
		retain(ids)
	}
	for _, ids := range by2 {
		retain(ids)
	}
	return g.collect(keep)
}

func (g *Graph) pruneCNP() []eval.Pair {
	by1, by2 := g.nodeEdges()
	// k = avg block assignments per entity (the paper's BC-derived k),
	// at least 1.
	k := 1
	if n := g.n1 + g.n2; n > 0 {
		if avg := int(g.assignments) / n; avg > 1 {
			k = avg
		}
	}
	keep := make(map[int32]struct{})
	retain := func(edgeIDs []int32) {
		if len(edgeIDs) == 0 {
			return
		}
		sorted := make([]int32, len(edgeIDs))
		copy(sorted, edgeIDs)
		sort.Slice(sorted, func(a, b int) bool {
			ea, eb := g.Edges[sorted[a]], g.Edges[sorted[b]]
			if ea.Weight != eb.Weight {
				return ea.Weight > eb.Weight
			}
			return ea.Pair.Less(eb.Pair)
		})
		top := k
		if top > len(sorted) {
			top = len(sorted)
		}
		for _, i := range sorted[:top] {
			keep[i] = struct{}{}
		}
	}
	for _, ids := range by1 {
		retain(ids)
	}
	for _, ids := range by2 {
		retain(ids)
	}
	return g.collect(keep)
}

func (g *Graph) collect(keep map[int32]struct{}) []eval.Pair {
	out := make([]eval.Pair, 0, len(keep))
	for i := range keep {
		out = append(out, g.Edges[i].Pair)
	}
	eval.SortPairs(out)
	return out
}

// Stats summarizes a pruned comparison set against a ground truth.
type Stats struct {
	Comparisons int
	PairsFound  int
	Recall      float64 // PC
	Precision   float64 // PQ
}

// ComputeStats scores retained comparisons.
func ComputeStats(pairs []eval.Pair, gt *eval.GroundTruth) Stats {
	st := Stats{Comparisons: len(pairs)}
	for _, p := range pairs {
		if gt.Contains(p.E1, p.E2) {
			st.PairsFound++
		}
	}
	if gt.Len() > 0 {
		st.Recall = float64(st.PairsFound) / float64(gt.Len())
	}
	if st.Comparisons > 0 {
		st.Precision = float64(st.PairsFound) / float64(st.Comparisons)
	}
	return st
}
