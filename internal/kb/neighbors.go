package kb

import "sort"

// TopNeighbors returns the "best neighbors" of an entity as defined for
// H3: the entities associated with it — via incoming or outgoing edges —
// through one of the N relations with the maximum (global) importance
// score among the relations present on this entity. The result is
// sorted and deduplicated.
func (kb *KB) TopNeighbors(id EntityID, n int) []EntityID {
	kb.materialize()
	if n <= 0 {
		return nil
	}
	e := &kb.entities[id]
	if len(e.Out) == 0 && len(e.In) == 0 {
		return nil
	}
	// Collect the distinct relations on this entity.
	relSet := make(map[int32]struct{}, 4)
	for _, edge := range e.Out {
		relSet[edge.Pred] = struct{}{}
	}
	for _, edge := range e.In {
		relSet[edge.Pred] = struct{}{}
	}
	rels := make([]int32, 0, len(relSet))
	for r := range relSet {
		rels = append(rels, r)
	}
	sort.Slice(rels, func(i, j int) bool {
		a, b := kb.relImportance(rels[i]), kb.relImportance(rels[j])
		if a != b {
			return a > b
		}
		return kb.preds[rels[i]] < kb.preds[rels[j]]
	})
	if n < len(rels) {
		rels = rels[:n]
	}
	keep := make(map[int32]bool, len(rels))
	for _, r := range rels {
		keep[r] = true
	}

	seen := make(map[EntityID]struct{}, len(e.Out)+len(e.In))
	var out []EntityID
	add := func(edges []Edge) {
		for _, edge := range edges {
			if !keep[edge.Pred] {
				continue
			}
			if _, dup := seen[edge.Target]; dup {
				continue
			}
			seen[edge.Target] = struct{}{}
			out = append(out, edge.Target)
		}
	}
	add(e.Out)
	add(e.In)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (kb *KB) relImportance(pred int32) float64 {
	if st := kb.relStats[pred]; st != nil {
		return st.Importance
	}
	return 0
}
