package datagen

import (
	"strings"
	"testing"

	"minoaner/internal/kb"
)

var testOpts = Options{Seed: 7, Scale: 0.1}

// predBySuffix finds an attribute predicate whose IRI ends with the
// suffix, independent of which vocabulary namespace it landed in.
func predBySuffix(k *kb.KB, suffix string) (int32, bool) {
	for _, st := range k.AttrStats() {
		if strings.HasSuffix(k.Pred(st.Pred), suffix) {
			return st.Pred, true
		}
	}
	return 0, false
}

func buildAll(t testing.TB, opts Options) []*Dataset {
	t.Helper()
	var out []*Dataset
	for _, g := range Generators() {
		ds, err := g.Build(opts)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		out = append(out, ds)
	}
	return out
}

func TestGeneratorsListed(t *testing.T) {
	gens := Generators()
	if len(gens) != 4 {
		t.Fatalf("generators = %d, want 4", len(gens))
	}
	wantNames := []string{"Restaurant", "Rexa-DBLP", "BBCmusic-DBpedia", "YAGO-IMDb"}
	for i, g := range gens {
		if g.Name != wantNames[i] {
			t.Errorf("generator %d = %s, want %s", i, g.Name, wantNames[i])
		}
		if _, ok := ByName(g.Name); !ok {
			t.Errorf("ByName(%s) failed", g.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestAllDatasetsWellFormed(t *testing.T) {
	for _, ds := range buildAll(t, testOpts) {
		t.Run(ds.Name, func(t *testing.T) {
			if ds.KB1.Len() == 0 || ds.KB2.Len() == 0 {
				t.Fatal("empty KB")
			}
			if ds.GT.Len() == 0 {
				t.Fatal("empty ground truth")
			}
			if ds.KB1.Len() >= ds.KB2.Len() {
				t.Errorf("KB1 (%d) should be smaller than KB2 (%d), as in the paper",
					ds.KB1.Len(), ds.KB2.Len())
			}
			if ds.GT.Len() > ds.KB1.Len() {
				t.Errorf("more matches (%d) than KB1 entities (%d)", ds.GT.Len(), ds.KB1.Len())
			}
			if len(ds.Triples1) == 0 || len(ds.Triples2) == 0 {
				t.Error("triples not retained")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, g := range Generators() {
		a, err := g.Build(testOpts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Build(testOpts)
		if err != nil {
			t.Fatal(err)
		}
		if a.KB1.Len() != b.KB1.Len() || a.KB2.Len() != b.KB2.Len() || a.GT.Len() != b.GT.Len() {
			t.Errorf("%s: nondeterministic sizes", g.Name)
		}
		pa, pb := a.GT.Pairs(), b.GT.Pairs()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: ground truth differs at %d", g.Name, i)
			}
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	a, _ := Restaurant(Options{Seed: 1, Scale: 0.1})
	b, _ := Restaurant(Options{Seed: 2, Scale: 0.1})
	// Same sizes, different content.
	if a.KB1.Len() != b.KB1.Len() {
		t.Error("sizes should not depend on seed")
	}
	same := 0
	for i := 0; i < a.KB1.Len(); i++ {
		ta := a.KB1.Tokens(kb.EntityID(i))
		tb := b.KB1.Tokens(kb.EntityID(i))
		if strings.Join(ta, " ") == strings.Join(tb, " ") {
			same++
		}
	}
	if same == a.KB1.Len() {
		t.Error("different seeds produced identical KBs")
	}
}

func TestScaleChangesSize(t *testing.T) {
	small, _ := Restaurant(Options{Seed: 1, Scale: 0.1})
	big, _ := Restaurant(Options{Seed: 1, Scale: 0.3})
	if big.KB1.Len() <= small.KB1.Len() {
		t.Errorf("scale 0.3 (%d) not larger than 0.1 (%d)", big.KB1.Len(), small.KB1.Len())
	}
}

func TestRestaurantShape(t *testing.T) {
	ds, err := Restaurant(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Homogeneous schemas: few attributes and relations on both sides.
	if ds.KB1.NumAttributes() > 10 || ds.KB2.NumAttributes() > 10 {
		t.Errorf("restaurant attributes exploded: %d/%d", ds.KB1.NumAttributes(), ds.KB2.NumAttributes())
	}
	if ds.KB1.NumRelations() != 1 || ds.KB2.NumRelations() != 1 {
		t.Errorf("relations = %d/%d, want 1/1", ds.KB1.NumRelations(), ds.KB2.NumRelations())
	}
	if ds.KB1.NumTypes() != 2 {
		t.Errorf("types = %d, want 2", ds.KB1.NumTypes())
	}
}

func TestMusicHeterogeneity(t *testing.T) {
	ds, err := Music(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The defining property of the BBCmusic-DBpedia pair: KB2's schema
	// explodes relative to KB1's.
	if ds.KB2.NumAttributes() < 10*ds.KB1.NumAttributes() {
		t.Errorf("KB2 attributes (%d) should dwarf KB1's (%d)",
			ds.KB2.NumAttributes(), ds.KB1.NumAttributes())
	}
	if ds.KB2.NumTypes() < 20*ds.KB1.NumTypes() {
		t.Errorf("KB2 types (%d) should dwarf KB1's (%d)", ds.KB2.NumTypes(), ds.KB1.NumTypes())
	}
	// KB2 descriptions are much longer on average (token dilution).
	if ds.KB2.AvgTokens() < 1.5*ds.KB1.AvgTokens() {
		t.Errorf("KB2 avg tokens (%.1f) should exceed KB1's (%.1f)",
			ds.KB2.AvgTokens(), ds.KB1.AvgTokens())
	}
}

func TestMoviesShortDescriptions(t *testing.T) {
	ds, err := Movies(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.KB1.AvgTokens() > 20 || ds.KB2.AvgTokens() > 20 {
		t.Errorf("movie descriptions too long: %.1f / %.1f tokens",
			ds.KB1.AvgTokens(), ds.KB2.AvgTokens())
	}
	if ds.KB1.NumRelations() < 2 {
		t.Errorf("movie KB1 relations = %d, want >= 2", ds.KB1.NumRelations())
	}
}

func TestBibliographyNoise(t *testing.T) {
	ds, err := Bibliography(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Count matched publication pairs with identical normalized titles;
	// noise must make this well below 100% but token overlap must stay.
	pid1, ok1 := predBySuffix(ds.KB1, "/title")
	pid2, ok2 := predBySuffix(ds.KB2, "/title")
	if !ok1 || !ok2 {
		t.Fatal("title predicates missing")
	}
	exact, total := 0, 0
	for _, p := range ds.GT.Pairs() {
		n1 := ds.KB1.Names(p.E1, []int32{pid1})
		n2 := ds.KB2.Names(p.E2, []int32{pid2})
		if len(n1) == 0 || len(n2) == 0 {
			continue // author pair
		}
		total++
		if n1[0] == n2[0] {
			exact++
		}
	}
	if total == 0 {
		t.Fatal("no publication pairs found")
	}
	ratio := float64(exact) / float64(total)
	if ratio > 0.8 {
		t.Errorf("title noise too weak: %.2f exact", ratio)
	}
	if ratio < 0.05 {
		t.Errorf("title noise too strong: %.2f exact", ratio)
	}
}
