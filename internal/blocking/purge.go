package blocking

import "sort"

// PurgeConfig controls Block Purging. Purging removes the excessively
// large blocks that stem from highly frequent tokens (stop-words),
// which contribute quadratically many comparisons but no discriminative
// evidence (paper §III, following [6]).
type PurgeConfig struct {
	// EntityFraction purges a block when its members from either KB
	// exceed this fraction of that KB's entities: a token carried by a
	// large share of a KB cannot identify anything.
	EntityFraction float64
	// MinEntities is a floor for the cutoff so that tiny datasets keep
	// their (absolutely small) blocks.
	MinEntities int
}

// DefaultPurgeConfig returns the configuration used across the
// experiments: blocks covering more than 3% of either KB (but at least
// 25 entities) are purged.
func DefaultPurgeConfig() PurgeConfig {
	return PurgeConfig{EntityFraction: 0.03, MinEntities: 25}
}

// NoPurge disables purging (every block survives).
//
//minoaner:keep the no-purging configuration core's and pipeline's tests run their tiny fixtures under
func NoPurge() PurgeConfig {
	return PurgeConfig{EntityFraction: 1.0, MinEntities: 1 << 30}
}

// PurgeResult describes what Block Purging removed.
type PurgeResult struct {
	// Cutoff1 and Cutoff2 are the per-KB member-count limits applied.
	Cutoff1, Cutoff2   int
	RemovedBlocks      int
	RemovedComparisons int64
}

// Purge applies frequency-based Block Purging: a block survives only if
// its member count from each KB stays within the configured fraction of
// that KB (with the MinEntities floor). The paper reports that purging
// keeps the comparisons two orders of magnitude below the Cartesian
// product at negligible recall cost; ComputeStats verifies that on
// every dataset.
func Purge(c *Collection, cfg PurgeConfig) (*Collection, PurgeResult) {
	cut1 := cutoff(c.n1, cfg)
	cut2 := cutoff(c.n2, cfg)
	out := NewCollection(c.n1, c.n2)
	res := PurgeResult{Cutoff1: cut1, Cutoff2: cut2}
	for _, b := range c.Blocks {
		if len(b.E1) > cut1 || len(b.E2) > cut2 {
			res.RemovedBlocks++
			res.RemovedComparisons += b.Comparisons()
			continue
		}
		out.Blocks = append(out.Blocks, b)
	}
	return out, res
}

func cutoff(n int, cfg PurgeConfig) int {
	c := int(cfg.EntityFraction * float64(n))
	if c < cfg.MinEntities {
		c = cfg.MinEntities
	}
	if c < 1 {
		c = 1
	}
	return c
}

// PurgeByRatio is the alternative comparison-cardinality knee heuristic
// (kept for ablation studies): distinct block cardinalities are scanned
// in ascending order while tracking the cumulative
// comparisons-per-assignment ratio; the scan stops at the first
// cardinality whose cumulative ratio exceeds the previous one by more
// than the smoothing factor, and larger blocks are purged. It is far
// more aggressive than Purge on smooth cardinality distributions.
func PurgeByRatio(c *Collection, smoothing float64) (*Collection, PurgeResult) {
	if len(c.Blocks) == 0 {
		return c, PurgeResult{}
	}
	type cardStat struct {
		card int64
		cc   int64
		ba   int64
	}
	byCard := make(map[int64]*cardStat)
	for i := range c.Blocks {
		b := &c.Blocks[i]
		card := b.Comparisons()
		st := byCard[card]
		if st == nil {
			st = &cardStat{card: card}
			byCard[card] = st
		}
		st.cc += card
		st.ba += b.Assignments()
	}
	stats := make([]*cardStat, 0, len(byCard))
	for _, st := range byCard {
		stats = append(stats, st)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].card < stats[j].card })

	maxCard := stats[0].card
	var cc, ba int64
	prevRatio := -1.0
	for _, st := range stats {
		cc += st.cc
		ba += st.ba
		ratio := float64(cc) / float64(ba)
		if prevRatio >= 0 && ratio > smoothing*prevRatio {
			break
		}
		maxCard = st.card
		prevRatio = ratio
	}

	out := NewCollection(c.n1, c.n2)
	res := PurgeResult{}
	for _, b := range c.Blocks {
		if cmp := b.Comparisons(); cmp > maxCard {
			res.RemovedBlocks++
			res.RemovedComparisons += cmp
			continue
		}
		out.Blocks = append(out.Blocks, b)
	}
	return out, res
}

// DefaultSmoothing is the smoothing factor of PurgeByRatio.
const DefaultSmoothing = 1.025
