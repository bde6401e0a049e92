package core

import (
	"context"

	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
)

// RunStream resolves (kb1, kb2) as an anytime computation: emit is
// called for every confirmed match, in decreasing pair quality, the
// moment H1–H4 agree on it. The Disable flags skip whole heuristic
// phases — the streaming counterpart of Matcher.Plan's stage drops —
// and cfg.Strategy selects the pair scheduler. Draining an unbudgeted
// stream yields exactly the batch Matcher's match set; a budget (or a
// context deadline, or emit returning false) truncates the stream to a
// deterministic quality-ordered prefix.
func RunStream(ctx context.Context, kb1, kb2 *kb.KB, cfg Config, budget pipeline.StreamBudget, emit func(pipeline.ScoredPair) bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	st := pipeline.NewState(kb1, kb2, cfg.Params())
	return pipeline.RunStream(ctx, st, cfg.StreamConfig(budget), emit)
}

// StreamConfig projects the ablation switches, with a run's budget,
// onto the pipeline's per-run stream configuration.
func (c Config) StreamConfig(budget pipeline.StreamBudget) pipeline.StreamConfig {
	return pipeline.StreamConfig{
		Budget:    budget,
		DisableH1: c.DisableH1,
		DisableH2: c.DisableH2,
		DisableH3: c.DisableH3,
		DisableH4: c.DisableH4,
	}
}
