package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
	"minoaner/internal/rdf"
)

// deltaFromTriples builds a standalone delta KB from the triples whose
// subject is one of the given URIs.
func deltaFromTriples(t *testing.T, name string, triples []rdf.Triple, uris []string) *kb.KB {
	t.Helper()
	built, _, err := kb.FromTriplesSubset(name, triples, uris)
	if err != nil {
		t.Fatal(err)
	}
	return built
}

// assertSameResult compares the full evidence of two runs: the match
// set, every per-heuristic contribution, and all block accounting.
func assertSameResult(t *testing.T, label string, full, fast *Result) {
	t.Helper()
	if !reflect.DeepEqual(fast.Matches, full.Matches) {
		t.Fatalf("%s: prepared path found %d matches, full plan %d", label, len(fast.Matches), len(full.Matches))
	}
	if !reflect.DeepEqual(fast.H1, full.H1) || !reflect.DeepEqual(fast.H2, full.H2) || !reflect.DeepEqual(fast.H3, full.H3) {
		t.Fatalf("%s: per-heuristic contributions diverge (H1 %d/%d, H2 %d/%d, H3 %d/%d)",
			label, len(fast.H1), len(full.H1), len(fast.H2), len(full.H2), len(fast.H3), len(full.H3))
	}
	if fast.DiscardedByH4 != full.DiscardedByH4 {
		t.Fatalf("%s: H4 discarded %d vs %d", label, fast.DiscardedByH4, full.DiscardedByH4)
	}
	if fast.NameBlockCount != full.NameBlockCount || fast.TokenBlockCount != full.TokenBlockCount ||
		fast.NameComparisons != full.NameComparisons || fast.TokenComparisons != full.TokenComparisons ||
		fast.Purge != full.Purge {
		t.Fatalf("%s: block accounting diverges:\nfull: BN=%d BT=%d ||BN||=%d ||BT||=%d purge=%+v\nfast: BN=%d BT=%d ||BN||=%d ||BT||=%d purge=%+v",
			label,
			full.NameBlockCount, full.TokenBlockCount, full.NameComparisons, full.TokenComparisons, full.Purge,
			fast.NameBlockCount, fast.TokenBlockCount, fast.NameComparisons, fast.TokenComparisons, fast.Purge)
	}
}

// TestDeltaPlanEquivalence is the equivalence guard of the prepared
// path: on every benchmark, resolving single-entity, small-batch, and
// whole-KB2 deltas through the prepared plan is bit-identical to the
// full plan — matches, heuristic contributions, and block accounting —
// at every worker count.
func TestDeltaPlanEquivalence(t *testing.T) {
	for _, g := range datagen.Generators() {
		t.Run(g.Name, func(t *testing.T) {
			ds, err := g.Build(datagen.Options{Seed: 42, Scale: 0.12})
			if err != nil {
				t.Fatal(err)
			}
			n2 := ds.KB2.Len()
			uri := func(e int) string { return ds.KB2.URI(kb.EntityID(e)) }
			spread := func(size int) []string {
				var batch []string
				for e := 0; e < n2 && len(batch) < size; e += 1 + n2/size {
					batch = append(batch, uri(e))
				}
				return batch
			}
			var all []string
			for e := 0; e < n2; e++ {
				all = append(all, uri(e))
			}
			deltas := map[string]*kb.KB{
				"single-first": deltaFromTriples(t, "d1", ds.Triples2, []string{uri(0)}),
				"single-mid":   deltaFromTriples(t, "d2", ds.Triples2, []string{uri(n2 / 2)}),
				"single-last":  deltaFromTriples(t, "d5", ds.Triples2, []string{uri(n2 - 1)}),
				"batch-10":     deltaFromTriples(t, "d3", ds.Triples2, spread(10)),
				"batch-16":     deltaFromTriples(t, "d6", ds.Triples2, spread(16)),
				"batch-128":    deltaFromTriples(t, "d7", ds.Triples2, spread(128)),
				"full-kb2":     deltaFromTriples(t, "d4", ds.Triples2, all),
			}
			for _, workers := range []int{1, 2, 4, 8} {
				cfg := DefaultConfig()
				cfg.Workers = workers
				prep := pipeline.PrepareSide(ds.KB1, cfg.Params())
				for label, delta := range deltas {
					if delta.Len() >= ds.KB1.Len() {
						// RunDelta refuses deltas at least as large as the
						// prepared KB; the public QueryKB falls back to the
						// full plan there.
						if _, err := RunDelta(context.Background(), prep, delta, cfg, nil); err == nil {
							t.Fatalf("workers=%d %s: oversized delta accepted", workers, label)
						}
						continue
					}
					m, err := NewMatcher(ds.KB1, delta, cfg)
					if err != nil {
						t.Fatal(err)
					}
					full, err := m.RunContext(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					fast, err := RunDelta(context.Background(), prep, delta, cfg, nil)
					if err != nil {
						t.Fatalf("workers=%d %s: %v", workers, label, err)
					}
					assertSameResult(t, fmt.Sprintf("%s/%s/workers=%d", g.Name, label, workers), full, fast)
				}
			}
		})
	}
}

// TestDeltaPlanAblations checks the prepared path under every single
// heuristic ablation: the delta plan must drop the same stages the
// full plan drops and stay bit-identical.
func TestDeltaPlanAblations(t *testing.T) {
	ds, err := datagen.Generators()[0].Build(datagen.Options{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	uris := []string{ds.KB2.URI(0), ds.KB2.URI(kb.EntityID(ds.KB2.Len() / 3))}
	delta := deltaFromTriples(t, "delta", ds.Triples2, uris)
	mutate := []func(*Config){
		func(c *Config) { c.DisableH1 = true },
		func(c *Config) { c.DisableH2 = true },
		func(c *Config) { c.DisableH3 = true },
		func(c *Config) { c.DisableH4 = true },
	}
	for i, mut := range mutate {
		cfg := DefaultConfig()
		mut(&cfg)
		prep := pipeline.PrepareSide(ds.KB1, cfg.Params())
		m, err := NewMatcher(ds.KB1, delta, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fast, err := RunDelta(context.Background(), prep, delta, cfg, nil)
		if err != nil {
			t.Fatalf("ablation %d: %v", i, err)
		}
		assertSameResult(t, "ablation", full, fast)
	}
}

// TestRunDeltaValidation covers the substrate/parameter guards.
func TestRunDeltaValidation(t *testing.T) {
	ds, err := datagen.Generators()[0].Build(datagen.Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	delta := deltaFromTriples(t, "delta", ds.Triples2, []string{ds.KB2.URI(0)})
	cfg := DefaultConfig()
	prep := pipeline.PrepareSide(ds.KB1, cfg.Params())

	if _, err := RunDelta(context.Background(), nil, delta, cfg, nil); err == nil {
		t.Error("nil substrate accepted")
	}
	mismatched := cfg
	mismatched.NameK = cfg.NameK + 1
	if _, err := RunDelta(context.Background(), prep, delta, mismatched, nil); err == nil {
		t.Error("NameK mismatch accepted")
	}
	mismatched = cfg
	mismatched.N = cfg.N + 1
	if _, err := RunDelta(context.Background(), prep, delta, mismatched, nil); err == nil {
		t.Error("N mismatch accepted")
	}
}
