package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
	"minoaner/internal/rdf"
)

var update = flag.Bool("update", false, "rewrite testdata/update_work.json (TestUpdateWork)")

const updateWorkGolden = "testdata/update_work.json"

// updateWorkScript is the fixed mutation script of TestUpdateWork: each
// kind on both sides, two diffs that rewrite one entity and delete
// another holding one of its kept tokens, and two rewrites that only
// add a note whose tokens no entity shares.
var updateWorkScript = []struct {
	side int
	kind string
}{
	{2, "rewrite"}, {2, "insert"}, {2, "delete"}, {2, "mixed"}, {2, "note"},
	{1, "rewrite"}, {1, "insert"}, {1, "delete"}, {1, "mixed"}, {1, "note"},
	{2, "rewrite"}, {1, "rewrite"},
}

// workRow is one step's exact work: the value- and neighbour-affected
// entity counts per side (UpdateCounters), whether the matching half
// was adopted (EvidenceUnchanged), and the purged B_T's size.
type workRow struct {
	Step        string `json:"step"`
	Affected    [4]int `json:"affected"`
	Adopted     bool   `json:"adopted"`
	TokenBlocks int    `json:"token_blocks"`
	Comparisons int64  `json:"comparisons"`
}

// TestUpdateWork pins how much the update path recomputes — the
// affected sets, adoption, and the resulting token blocks — on the four
// benchmarks at ×0.1, seed 42, so a change that claims to leave that
// work alone must pass it unchanged. Every step's result must also
// equal the full plan over the mutated KBs. `go test ./internal/core
// -run TestUpdateWork -update` rewrites the golden.
func TestUpdateWork(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	got := map[string][]workRow{}
	var order []string
	for _, g := range datagen.Generators() {
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: goldenScale})
		if err != nil {
			t.Fatal(err)
		}
		st := pipeline.NewState(ds.KB1, ds.KB2, cfg.Params())
		if _, err := (&pipeline.Engine{Plan: PlanFor(cfg)}).Run(ctx, st); err != nil {
			t.Fatal(err)
		}
		cache, err := pipeline.NewCache(ctx, st, st.NameBlocks, st.PurgeStats)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetMatches(st.H1, st.H2, st.H3, st.Matches, st.DiscardedByH4)

		rng := rand.New(rand.NewSource(42))
		sides := [2]*epochHarness{newEpochHarness(t, ds.KB1, ds.Triples1), newEpochHarness(t, ds.KB2, ds.Triples2)}
		var rows []workRow
		for round, step := range updateWorkScript {
			h := sides[step.side-1]
			var delta []rdf.Triple
			var deletes []string
			switch step.kind {
			case "rewrite":
				delta, deletes = h.rewrite(rng, round)
			case "insert":
				delta = h.insert(rng, round)
			case "delete":
				deletes = h.deletes(rng)
			case "mixed":
				delta, deletes = h.mixed(t, rng, round)
			case "note":
				delta = h.note(rng, round)
			}
			label := fmt.Sprintf("%s %s-%d", g.Name, step.kind, step.side)
			old, _, ok := h.apply(t, delta, deletes)
			if !ok {
				t.Fatalf("%s: the mutation changed nothing", label)
			}
			old1, old2 := sides[0].cur, sides[1].cur
			if step.side == 1 {
				old1 = old
			} else {
				old2 = old
			}
			res, ust, err := runUpdate(ctx, cache, old1, old2, sides[0].cur, sides[1].cur, cfg, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			m, err := NewMatcher(sides[0].cur, sides[1].cur, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.RunContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, label, want, res)
			v1, v2, n1, n2 := ust.UpdateCounters()
			rows = append(rows, workRow{
				Step:        fmt.Sprintf("%s-%d", step.kind, step.side),
				Affected:    [4]int{v1, v2, n1, n2},
				Adopted:     ust.EvidenceUnchanged(),
				TokenBlocks: res.TokenBlockCount,
				Comparisons: res.TokenComparisons,
			})
			cache = ust.UpdatedCache()
		}
		got[g.Name] = rows
		order = append(order, g.Name)
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(updateWorkGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(updateWorkGolden, encodeWork(t, order, got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(updateWorkGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	var want map[string][]workRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		g, w := got[name], want[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d steps, golden has %d", name, len(g), len(w))
			continue
		}
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Errorf("%s step %d:\n got %+v\nwant %+v", name, i, g[i], w[i])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d benchmarks, the run %d", len(want), len(got))
	}
}

// encodeWork renders the golden with one step per line, benchmarks in
// generator order.
func encodeWork(t *testing.T, order []string, rows map[string][]workRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, name := range order {
		fmt.Fprintf(&buf, "  %q: [\n", name)
		for j, r := range rows[name] {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString("    ")
			buf.Write(line)
			if j < len(rows[name])-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("  ]")
		if i < len(order)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}

// keep returns the entity's current triples plus one more, so the
// entity keeps every key it had.
func (h *epochHarness) keep(e kb.EntityID, pred, value string) []rdf.Triple {
	uri := h.cur.URI(e)
	var out []rdf.Triple
	for _, tr := range h.ref {
		if kb.SubjectKey(tr.Subject) == uri {
			out = append(out, tr)
		}
	}
	return append(out, rdf.NewTriple(rdf.NewIRI(uri), rdf.NewIRI(pred), rdf.NewLiteral(value)))
}

// mixed is one diff that rewrites an entity, which keeps every token,
// and deletes the first other entity sharing one of those tokens: that
// token's posting keeps the rewritten member and loses the deleted one.
func (h *epochHarness) mixed(t *testing.T, rng *rand.Rand, round int) ([]rdf.Triple, []string) {
	t.Helper()
	for try := 0; try < 100; try++ {
		e := kb.EntityID(rng.Intn(h.cur.Len()))
		toks := h.cur.Tokens(e)
		for x := 0; x < h.cur.Len(); x++ {
			if kb.EntityID(x) != e && shareSorted(toks, h.cur.Tokens(kb.EntityID(x))) {
				return h.keep(e, "http://mut/extra", fmt.Sprintf("extra%d", round)), []string{h.cur.URI(kb.EntityID(x))}
			}
		}
	}
	t.Fatal("no entity shares a token with another")
	return nil, nil
}

// note rewrites one entity by adding a note whose tokens occur nowhere.
func (h *epochHarness) note(rng *rand.Rand, round int) []rdf.Triple {
	return h.keep(kb.EntityID(rng.Intn(h.cur.Len())), "http://mut/note", fmt.Sprintf("zzqx%d ywvu%d", round, round))
}

// shareSorted reports whether two ascending, distinct lists intersect.
func shareSorted(a, b []string) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
