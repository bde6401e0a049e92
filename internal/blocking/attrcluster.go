package blocking

import (
	"fmt"
	"sort"

	"minoaner/internal/kb"
	"minoaner/internal/tokenize"
)

// Attribute-clustering blocking (Papadakis et al., TKDE 2013 — the
// schema-agnostic blocking family the paper builds on): instead of one
// global token namespace, attributes of the two KBs are first clustered
// by the similarity of their *value distributions*; token keys are then
// qualified by their attribute's cluster, so a token only co-occurs
// across KBs when it appears under comparable attributes. This retains
// Token Blocking's schema independence while cutting the comparisons
// that stem from token collisions across unrelated attributes.

// AttributeClusters maps every attribute predicate of both KBs to a
// cluster ID. Cluster 0 is the "glue" cluster for attributes without a
// sufficiently similar partner.
type AttributeClusters struct {
	ByKB1 map[int32]int
	ByKB2 map[int32]int
	Count int
}

// ClusterAttributes groups the attributes of the two KBs: each KB1
// attribute is linked to its most value-similar KB2 attribute (token
// Jaccard over sampled value tokens) when that similarity reaches
// minSim, and connected components of the resulting links become
// clusters. maxTokens bounds the per-attribute token sample.
func ClusterAttributes(kb1, kb2 *kb.KB, minSim float64, maxTokens int) *AttributeClusters {
	if maxTokens <= 0 {
		maxTokens = 1000
	}
	prof1 := attributeProfiles(kb1, maxTokens)
	prof2 := attributeProfiles(kb2, maxTokens)

	// Best partner per KB1 attribute and per KB2 attribute.
	type link struct {
		a, b int32
	}
	var links []link
	for _, p1 := range prof1 {
		bestSim := 0.0
		var best int32 = -1
		for _, p2 := range prof2 {
			if s := tokenJaccard(p1.tokens, p2.tokens); s > bestSim {
				bestSim = s
				best = p2.pred
			}
		}
		if best >= 0 && bestSim >= minSim {
			links = append(links, link{a: p1.pred, b: best})
		}
	}
	for _, p2 := range prof2 {
		bestSim := 0.0
		var best int32 = -1
		for _, p1 := range prof1 {
			if s := tokenJaccard(p2.tokens, p1.tokens); s > bestSim {
				bestSim = s
				best = p1.pred
			}
		}
		if best >= 0 && bestSim >= minSim {
			links = append(links, link{a: best, b: p2.pred})
		}
	}

	// Union-find over the bipartite links.
	uf := newUnionFind()
	for _, l := range links {
		uf.union(node{1, l.a}, node{2, l.b})
	}
	clusters := &AttributeClusters{
		ByKB1: make(map[int32]int),
		ByKB2: make(map[int32]int),
	}
	ids := map[node]int{}
	next := 1 // 0 is the glue cluster
	assign := func(side uint8, pred int32, out map[int32]int) {
		n := node{side, pred}
		root, ok := uf.find(n)
		if !ok {
			out[pred] = 0 // unlinked → glue cluster
			return
		}
		id, seen := ids[root]
		if !seen {
			id = next
			next++
			ids[root] = id
		}
		out[pred] = id
	}
	for _, p := range prof1 {
		assign(1, p.pred, clusters.ByKB1)
	}
	for _, p := range prof2 {
		assign(2, p.pred, clusters.ByKB2)
	}
	clusters.Count = next
	return clusters
}

// AttributeClusteredBlocks builds token blocks whose keys are qualified
// by attribute cluster: key = "<cluster>|<token>". Tokens under the
// glue cluster collide globally (preserving recall for unlinked
// attributes); tokens under a real cluster only collide within it.
func AttributeClusteredBlocks(kb1, kb2 *kb.KB, clusters *AttributeClusters) *Collection {
	keysOf := func(k *kb.KB, byPred map[int32]int) func(e int) []string {
		keys := make([][]string, k.Len())
		for e := range keys {
			seen := make(map[string]struct{})
			for _, av := range k.Entity(kb.EntityID(e)).Attrs {
				cluster := byPred[av.Pred]
				for _, tok := range tokenize.Tokens(av.Value, tokenize.DefaultOptions) {
					key := fmt.Sprintf("%d|%s", cluster, tok)
					if _, dup := seen[key]; !dup {
						seen[key] = struct{}{}
						keys[e] = append(keys[e], key)
					}
				}
			}
		}
		return func(e int) []string { return keys[e] }
	}
	p1 := keyPostings(kb1.Len(), keysOf(kb1, clusters.ByKB1), nil)
	p2 := keyPostings(kb2.Len(), keysOf(kb2, clusters.ByKB2), &p1)
	return join(kb1.Len(), kb2.Len(), &p1, &p2)
}

type attrProfile struct {
	pred   int32
	tokens map[string]struct{}
}

// attributeProfiles samples up to maxTokens distinct value tokens per
// attribute, in deterministic entity order.
func attributeProfiles(k *kb.KB, maxTokens int) []attrProfile {
	byPred := make(map[int32]map[string]struct{})
	for i := 0; i < k.Len(); i++ {
		for _, av := range k.Entity(kb.EntityID(i)).Attrs {
			set := byPred[av.Pred]
			if set == nil {
				set = make(map[string]struct{})
				byPred[av.Pred] = set
			}
			if len(set) >= maxTokens {
				continue
			}
			for _, tok := range tokenize.Tokens(av.Value, tokenize.DefaultOptions) {
				if len(set) >= maxTokens {
					break
				}
				set[tok] = struct{}{}
			}
		}
	}
	out := make([]attrProfile, 0, len(byPred))
	for pred, set := range byPred {
		out = append(out, attrProfile{pred: pred, tokens: set})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pred < out[j].pred })
	return out
}

func tokenJaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for tok := range small {
		if _, ok := large[tok]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// node identifies an attribute on one side of the bipartite link graph.
type node struct {
	side uint8
	pred int32
}

type unionFind struct {
	parent map[node]node
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[node]node)} }

func (u *unionFind) find(n node) (node, bool) {
	p, ok := u.parent[n]
	if !ok {
		return n, false
	}
	for p != n {
		u.parent[n] = u.parent[p]
		n = p
		p = u.parent[n]
	}
	return n, true
}

func (u *unionFind) union(a, b node) {
	ra := u.root(a)
	rb := u.root(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// root is find with auto-registration.
func (u *unionFind) root(n node) node {
	if _, ok := u.parent[n]; !ok {
		u.parent[n] = n
	}
	r, _ := u.find(n)
	return r
}
