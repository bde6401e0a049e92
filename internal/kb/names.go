package kb

import (
	"slices"

	"minoaner/internal/tokenize"
)

// TopNameAttributes returns the IDs of the k most important attribute
// predicates of the KB — the attributes whose literal values serve as
// entity names in H1 (paper §III: "the literal values of the k
// attributes in every description with the highest importance").
// Fewer than k attributes may exist; all are returned in importance
// order then.
func (kb *KB) TopNameAttributes(k int) []int32 {
	kb.materialize()
	stats := kb.AttrStats()
	if k > len(stats) {
		k = len(stats)
	}
	out := make([]int32, 0, k)
	for _, st := range stats[:k] {
		out = append(out, st.Pred)
	}
	return out
}

// Names returns the normalized name keys of an entity: the distinct
// normalized literal values it holds for any of the given name
// attributes, ascending. Empty keys (values with no tokens) are
// dropped.
func (kb *KB) Names(id EntityID, nameAttrs []int32) []string {
	return kb.AppendNames(nil, id, nameAttrs)
}

// AppendNames appends the entity's name keys (see Names) to dst and
// returns the extended slice. It allocates only when dst lacks room, or
// for a value NormalizeKey has to rewrite: a caller that hands it one
// slot per name-attribute value keys every entity in place.
func (kb *KB) AppendNames(dst []string, id EntityID, nameAttrs []int32) []string {
	kb.materialize()
	from := len(dst)
	for _, av := range kb.entities[id].Attrs {
		if !slices.Contains(nameAttrs, av.Pred) {
			continue
		}
		if key := tokenize.NormalizeKey(av.Value); key != "" {
			dst = append(dst, key)
		}
	}
	names := dst[from:]
	slices.Sort(names)
	return dst[:from+len(slices.Compact(names))]
}
