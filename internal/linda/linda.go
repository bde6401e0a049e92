// Package linda approximates LINDA (Böhm et al., CIKM 2012), the
// distributed web-of-data matching baseline. LINDA propagates matching
// decisions like SiGMa, but judges two relations compatible only when
// their *labels* are similar — a condition that rarely holds across
// independently designed web vocabularies, which is why LINDA trails
// the other systems in the paper's Table III.
package linda

import (
	"strings"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/propagate"
	"minoaner/internal/sigma"
	"minoaner/internal/tokenize"
)

// Config tunes the approximation.
type Config struct {
	// NameK seeds matches from the top-k name attributes.
	NameK int
	// LabelJaccard is the minimum label similarity between two relation
	// labels (IRI local names) for the relations to count as
	// compatible.
	LabelJaccard float64
	// LabelSimilarity scores two relation labels in [0,1]. Nil selects
	// token Jaccard; strsim.JaroWinkler is a common alternative that
	// tolerates morphological variation ("directedBy" vs "director").
	LabelSimilarity func(a, b string) float64
	// Engine configures the propagation.
	Engine propagate.Config
}

// DefaultConfig returns the standard settings.
func DefaultConfig() Config {
	return Config{NameK: 2, LabelJaccard: 0.5, Engine: propagate.DefaultConfig()}
}

// labelCompat scores relation pairs by the similarity of their labels.
// It learns nothing.
type labelCompat struct {
	kb1, kb2  *kb.KB
	threshold float64
	sim       func(a, b string) float64
	cache     map[[2]int32]float64
}

// Weight implements propagate.Compat.
func (c *labelCompat) Weight(r1, r2 int32) float64 {
	k := [2]int32{r1, r2}
	if w, ok := c.cache[k]; ok {
		return w
	}
	j := c.sim(localName(c.kb1.Pred(r1)), localName(c.kb2.Pred(r2)))
	w := 0.0
	if j >= c.threshold {
		w = j
	}
	c.cache[k] = w
	return w
}

// Learn implements propagate.Compat as a no-op: label evidence is
// static.
func (c *labelCompat) Learn(r1, r2 int32) {}

// labelJaccard is the default label similarity: Jaccard over the
// labels' tokens.
func labelJaccard(iri1, iri2 string) float64 {
	t1 := tokenize.Set(tokenize.Tokens(localName(iri1), tokenize.DefaultOptions))
	t2 := tokenize.Set(tokenize.Tokens(localName(iri2), tokenize.DefaultOptions))
	if len(t1) == 0 || len(t2) == 0 {
		return 0
	}
	inter := 0
	for tok := range t1 {
		if _, ok := t2[tok]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(t1)+len(t2)-inter)
}

func localName(iri string) string {
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}

// Run executes the LINDA approximation.
func Run(kb1, kb2 *kb.KB, cfg Config) []eval.Pair {
	seeds := sigma.NameSeeds(kb1, kb2, cfg.NameK)
	vs := sigma.ValueSimilarity(kb1, kb2)
	sim := cfg.LabelSimilarity
	if sim == nil {
		sim = labelJaccard
	}
	compat := &labelCompat{
		kb1: kb1, kb2: kb2,
		threshold: cfg.LabelJaccard,
		sim:       sim,
		cache:     make(map[[2]int32]float64),
	}
	return propagate.Run(kb1, kb2, seeds, vs, compat, cfg.Engine)
}
