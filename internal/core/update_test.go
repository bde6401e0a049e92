package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
	"minoaner/internal/rdf"
)

// epochHarness drives one side's mutations: the triple-level reference
// list, the store, and the current KB epoch.
type epochHarness struct {
	ref   []rdf.Triple
	store *kb.Store
	cur   *kb.KB
}

func newEpochHarness(t *testing.T, base *kb.KB, triples []rdf.Triple) *epochHarness {
	t.Helper()
	store, err := kb.NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]rdf.Triple(nil), triples...)
	return &epochHarness{ref: ref, store: store, cur: base}
}

// mutate applies one random mutation (replace / insert / delete) and
// returns (old, new) KB epochs; ok=false when the roll was a no-op.
func (h *epochHarness) mutate(t *testing.T, rng *rand.Rand, round int) (old, new *kb.KB, ok bool) {
	t.Helper()
	var deltaTriples []rdf.Triple
	var deletes []string
	switch rng.Intn(5) {
	case 0: // delete 1-2 entities
		deletes = h.deletes(rng)
	case 1:
		deltaTriples = h.insert(rng, round)
	default:
		deltaTriples, deletes = h.rewrite(rng, round)
	}
	return h.apply(t, deltaTriples, deletes)
}

func (h *epochHarness) pickSubject(rng *rand.Rand) string {
	return h.cur.URI(kb.EntityID(rng.Intn(h.cur.Len())))
}

// deletes picks 1-2 entities to delete.
func (h *epochHarness) deletes(rng *rand.Rand) []string {
	var out []string
	for i := 0; i < 1+rng.Intn(2); i++ {
		out = append(out, h.pickSubject(rng))
	}
	return out
}

// insert describes a brand-new entity referencing an existing one.
func (h *epochHarness) insert(rng *rand.Rand, round int) []rdf.Triple {
	subj := rdf.NewIRI(fmt.Sprintf("http://mut/new-%d-%d", round, rng.Intn(1000)))
	return []rdf.Triple{
		rdf.NewTriple(subj, rdf.NewIRI("http://mut/name"), rdf.NewLiteral(fmt.Sprintf("fresh entity %d alpha", round))),
		rdf.NewTriple(subj, rdf.NewIRI("http://mut/link"), rdf.NewIRI(h.pickSubject(rng))),
	}
}

// rewrite replaces 1-2 existing entities with perturbed descriptions.
// When every triple of the chosen subjects was dropped, that is a
// delete, not an upsert. The subjects are visited in sorted order, so
// a seed fixes the mutation.
func (h *epochHarness) rewrite(rng *rand.Rand, round int) (deltaTriples []rdf.Triple, deletes []string) {
	chosen := map[string]bool{}
	for i := 0; i < 1+rng.Intn(2); i++ {
		chosen[h.pickSubject(rng)] = true
	}
	subjects := slices.Sorted(maps.Keys(chosen))
	for _, tr := range h.ref {
		if !chosen[kb.SubjectKey(tr.Subject)] {
			continue
		}
		switch {
		case tr.Object.IsLiteral() && rng.Intn(3) == 0:
			tr.Object = rdf.NewLiteral(tr.Object.Value + fmt.Sprintf(" mut%d", round))
		case rng.Intn(6) == 0:
			continue // drop the triple
		}
		deltaTriples = append(deltaTriples, tr)
	}
	for _, s := range subjects {
		if rng.Intn(2) == 0 {
			deltaTriples = append(deltaTriples, rdf.NewTriple(
				rdf.NewIRI(s), rdf.NewIRI("http://mut/extra"), rdf.NewLiteral(fmt.Sprintf("extra%d", rng.Intn(4)))))
		}
	}
	if len(deltaTriples) == 0 {
		deletes = subjects
	}
	return deltaTriples, deletes
}

// apply runs one mutation through the store and the triple-level
// reference list and returns the (old, new) KB epochs; ok=false when
// the store reports no change.
func (h *epochHarness) apply(t *testing.T, deltaTriples []rdf.Triple, deletes []string) (old, new *kb.KB, ok bool) {
	t.Helper()
	var deltaKB *kb.KB
	var err error
	if len(deltaTriples) > 0 {
		deltaKB, err = kb.FromTriples("delta", deltaTriples)
		if err != nil {
			t.Fatal(err)
		}
	}
	changed, _, err := h.store.Apply(deltaKB, deletes)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		return nil, nil, false
	}
	h.ref = applyTripleMutation(h.ref, deltaTriples, deletes)
	old = h.cur
	h.cur = h.store.Assemble(old)
	return old, h.cur, true
}

func applyTripleMutation(ts, delta []rdf.Triple, deletes []string) []rdf.Triple {
	drop := map[string]bool{}
	for _, tr := range delta {
		drop[kb.SubjectKey(tr.Subject)] = true
	}
	for _, u := range deletes {
		drop[u] = true
	}
	var out []rdf.Triple
	for _, tr := range ts {
		if !drop[kb.SubjectKey(tr.Subject)] {
			out = append(out, tr)
		}
	}
	return append(out, delta...)
}

// runUpdateStorm drives a randomized mutation sequence over one
// benchmark, asserting after every epoch that RunUpdate's result is
// bit-identical to the full plan over the mutated KBs.
func runUpdateStorm(t *testing.T, ds *datagen.Dataset, cfg Config, seed int64, rounds int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))

	// Prime the substrate from a full run.
	st := pipeline.NewState(ds.KB1, ds.KB2, cfg.Params())
	eng := pipeline.Engine{Plan: PlanFor(cfg)}
	if _, err := eng.Run(ctx, st); err != nil {
		t.Fatal(err)
	}
	cache, err := pipeline.NewCache(ctx, st, st.NameBlocks, st.PurgeStats)
	if err != nil {
		t.Fatal(err)
	}

	h1 := newEpochHarness(t, ds.KB1, ds.Triples1)
	h2 := newEpochHarness(t, ds.KB2, ds.Triples2)

	applied := 0
	for round := 0; applied < rounds && round < rounds*3; round++ {
		side := h2
		if rng.Intn(3) == 0 {
			side = h1 // mutate the indexed side too
		}
		old, mutated, ok := side.mutate(t, rng, round)
		if !ok {
			continue
		}
		applied++
		old1, old2 := h1.cur, h2.cur
		if side == h1 {
			old1 = old
		} else {
			old2 = old
		}
		_ = mutated

		got, nextCache, err := RunUpdate(ctx, cache, old1, old2, h1.cur, h2.cur, cfg, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		m, err := NewMatcher(h1.cur, h2.cur, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.RunContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("round %d (side1=%v)", round, side == h1), want, got)
		cache = nextCache
	}
	if applied == 0 {
		t.Fatal("storm applied no mutations")
	}
}

// TestUpdatePlanEquivalence is the equivalence guard of mutable
// epochs: on every benchmark, absorbing randomized upserts and deletes
// through the update plan is bit-identical to the full plan over the
// mutated KBs — matches, heuristic contributions, and block accounting
// — at every worker count.
func TestUpdatePlanEquivalence(t *testing.T) {
	for _, g := range datagen.Generators() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				workers := workers
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					ds, err := g.Build(datagen.Options{Seed: 42, Scale: 0.08})
					if err != nil {
						t.Fatal(err)
					}
					cfg := DefaultConfig()
					cfg.Workers = workers
					runUpdateStorm(t, ds, cfg, 1000+int64(workers), 5)
				})
			}
		})
	}
}

// TestUpdatePlanEquivalenceUnderAblations: a mutable index built with
// heuristics disabled keeps resolving without them across mutations.
func TestUpdatePlanEquivalenceUnderAblations(t *testing.T) {
	ds, err := datagen.Restaurant(datagen.Options{Seed: 42, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]func(*Config){
		"noH1": func(c *Config) { c.DisableH1 = true },
		"noH2": func(c *Config) { c.DisableH2 = true },
		"noH3": func(c *Config) { c.DisableH3 = true },
		"noH4": func(c *Config) { c.DisableH4 = true },
	}
	for name, mod := range mods {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 2
			mod(&cfg)
			runUpdateStorm(t, ds, cfg, 7, 3)
		})
	}
}
