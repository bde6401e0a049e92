package linda

import (
	"fmt"
	"testing"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
	"minoaner/internal/strsim"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

func tr(s, p string, o rdf.Term) rdf.Triple { return rdf.NewTriple(iri(s), iri(p), o) }

func mustKB(t testing.TB, name string, triples []rdf.Triple) *kb.KB {
	t.Helper()
	k, err := kb.FromTriples(name, triples)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestLabelJaccard(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"http://v/directed_by", "http://w/directed_by", 1},
		{"http://v/directed_by", "http://w/directed", 0.5},
		{"http://v/starring", "http://w/director", 0},
		{"http://v/", "http://w/x", 0},
	}
	for _, tc := range tests {
		if got := labelJaccard(tc.a, tc.b); got != tc.want {
			t.Errorf("labelJaccard(%q,%q) = %f, want %f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLabelCompatThreshold(t *testing.T) {
	t1 := []rdf.Triple{tr("http://a/x", "http://v/p", lit("v"))}
	kb1 := mustKB(t, "a", t1)
	c := &labelCompat{kb1: kb1, kb2: kb1, threshold: 0.5, sim: labelJaccard, cache: map[[2]int32]float64{}}
	pid, _ := kb1.PredID("http://v/p")
	if w := c.Weight(pid, pid); w != 1 {
		t.Errorf("identical labels weight = %f", w)
	}
	// Learn must be a no-op.
	c.Learn(pid, pid)
}

func TestJaroWinklerConfigTolerance(t *testing.T) {
	// "directedBy" vs "director" fails token Jaccard but passes
	// Jaro-Winkler at 0.8: plugged into Config.LabelSimilarity, it
	// recovers graph evidence where labels vary morphologically.
	kb1 := mustKB(t, "a", []rdf.Triple{tr("http://a/m", "http://a/directedBy", iri("http://a/d"))})
	kb2 := mustKB(t, "b", []rdf.Triple{tr("http://b/m", "http://b/director", iri("http://b/d"))})
	r1, _ := kb1.PredID("http://a/directedBy")
	r2, _ := kb2.PredID("http://b/director")
	jaccard := &labelCompat{kb1: kb1, kb2: kb2, threshold: 0.8, sim: labelJaccard, cache: map[[2]int32]float64{}}
	if w := jaccard.Weight(r1, r2); w != 0 {
		t.Errorf("token Jaccard weight = %f, want 0", w)
	}
	jw := &labelCompat{kb1: kb1, kb2: kb2, threshold: 0.8, sim: strsim.JaroWinkler, cache: map[[2]int32]float64{}}
	if w := jw.Weight(r1, r2); w < 0.8 {
		t.Errorf("Jaro-Winkler weight = %f, want >= 0.8", w)
	}
}

// buildLabelPair builds movie graphs; when sameLabels is true the two
// vocabularies use the same relation local names, otherwise disjoint
// ones.
func buildLabelPair(t testing.TB, sameLabels bool) (*kb.KB, *kb.KB, *eval.GroundTruth) {
	t.Helper()
	rel2 := "http://vb/directed_by"
	if !sameLabels {
		rel2 = "http://vb/helmedWith"
	}
	var t1, t2 []rdf.Triple
	n := 6
	for i := 0; i < n; i++ {
		m1 := fmt.Sprintf("http://a/m%02d", i)
		m2 := fmt.Sprintf("http://b/m%02d", i)
		title := fmt.Sprintf("Unique Movie %02d", i)
		t1 = append(t1,
			tr(m1, "http://va/title", lit(title)),
			tr(m1, "http://va/directed_by", iri(fmt.Sprintf("http://a/d%02d", i))),
		)
		t2 = append(t2,
			tr(m2, "http://vb/name", lit(title)),
			tr(m2, rel2, iri(fmt.Sprintf("http://b/d%02d", i))),
		)
		// Director names weakly similar: one shared surname token diluted
		// by several unshared ones, so value evidence alone stays below
		// the acceptance threshold and only graph evidence can rescue it.
		t1 = append(t1, tr(fmt.Sprintf("http://a/d%02d", i), "http://va/person",
			lit(fmt.Sprintf("alice maria wonder dirname%02d extra%02da", i, i))))
		t2 = append(t2, tr(fmt.Sprintf("http://b/d%02d", i), "http://vb/person",
			lit(fmt.Sprintf("a m dirname%02d other%02db filler%02dc", i, i, i))))
	}
	kb1, kb2 := mustKB(t, "a", t1), mustKB(t, "b", t2)
	gt := eval.NewGroundTruth()
	for i := 0; i < n; i++ {
		for _, prefix := range []string{"m", "d"} {
			e1, _ := kb1.Lookup(fmt.Sprintf("http://a/%s%02d", prefix, i))
			e2, _ := kb2.Lookup(fmt.Sprintf("http://b/%s%02d", prefix, i))
			if err := gt.Add(e1, e2); err != nil {
				t.Fatal(err)
			}
		}
	}
	return kb1, kb2, gt
}

func TestRunWithSimilarLabels(t *testing.T) {
	kb1, kb2, gt := buildLabelPair(t, true)
	m := eval.Evaluate(Run(kb1, kb2, DefaultConfig()), gt)
	if m.Recall < 0.9 {
		t.Errorf("LINDA with aligned labels: %s", m)
	}
}

func TestRunWithDisjointLabels(t *testing.T) {
	// Relation labels differ entirely, so the graph evidence vanishes;
	// LINDA must recall fewer matches than with aligned labels — its
	// structural weakness on web data (paper §II).
	kb1Same, kb2Same, gtSame := buildLabelPair(t, true)
	mSame := eval.Evaluate(Run(kb1Same, kb2Same, DefaultConfig()), gtSame)
	kb1, kb2, gt := buildLabelPair(t, false)
	m := eval.Evaluate(Run(kb1, kb2, DefaultConfig()), gt)
	if m.Recall >= mSame.Recall {
		t.Errorf("LINDA recall with disjoint labels (%f) should trail aligned labels (%f)", m.Recall, mSame.Recall)
	}
}

func TestRunDeterministic(t *testing.T) {
	kb1, kb2, _ := buildLabelPair(t, true)
	a := Run(kb1, kb2, DefaultConfig())
	b := Run(kb1, kb2, DefaultConfig())
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}
