package eval

import (
	"math"
	"strings"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

func gtWith(t *testing.T, pairs ...[2]int) *GroundTruth {
	t.Helper()
	gt := NewGroundTruth()
	for _, p := range pairs {
		if err := gt.Add(kb.EntityID(p[0]), kb.EntityID(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	return gt
}

func TestGroundTruthBasics(t *testing.T) {
	gt := gtWith(t, [2]int{0, 10}, [2]int{1, 11})
	if gt.Len() != 2 {
		t.Fatalf("len = %d", gt.Len())
	}
	if e2, ok := gt.Match1(0); !ok || e2 != 10 {
		t.Errorf("Match1(0) = %d,%v", e2, ok)
	}
	if !gt.Contains(0, 10) || gt.Contains(0, 11) || gt.Contains(5, 5) {
		t.Error("Contains wrong")
	}
	pairs := gt.Pairs()
	if len(pairs) != 2 || pairs[0].E1 != 0 || pairs[1].E1 != 1 {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestGroundTruthConflicts(t *testing.T) {
	gt := gtWith(t, [2]int{0, 10})
	if err := gt.Add(0, 10); err != nil {
		t.Errorf("idempotent add rejected: %v", err)
	}
	if err := gt.Add(0, 11); err == nil {
		t.Error("conflicting E1 mapping accepted")
	}
	if err := gt.Add(2, 10); err == nil {
		t.Error("conflicting E2 mapping accepted")
	}
}

func TestEvaluatePerfect(t *testing.T) {
	gt := gtWith(t, [2]int{0, 10}, [2]int{1, 11})
	m := Evaluate([]Pair{{0, 10}, {1, 11}}, gt)
	if m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.TP != 2 || m.FP != 0 || m.FN != 0 {
		t.Errorf("counts = %+v", m)
	}
}

func TestEvaluateMixed(t *testing.T) {
	gt := gtWith(t, [2]int{0, 10}, [2]int{1, 11}, [2]int{2, 12}, [2]int{3, 13})
	pred := []Pair{
		{0, 10}, // TP
		{1, 99}, // FP (wrong match for in-GT entity)
		{2, 12}, // TP
		// 3 missing -> FN
		{7, 70}, // ignored: E1 not in GT
	}
	m := Evaluate(pred, gt)
	if m.TP != 2 || m.FP != 1 {
		t.Fatalf("counts = %+v", m)
	}
	if math.Abs(m.Precision-2.0/3.0) > 1e-9 {
		t.Errorf("precision = %f", m.Precision)
	}
	if math.Abs(m.Recall-0.5) > 1e-9 {
		t.Errorf("recall = %f", m.Recall)
	}
	wantF1 := 2 * (2.0 / 3.0) * 0.5 / (2.0/3.0 + 0.5)
	if math.Abs(m.F1-wantF1) > 1e-9 {
		t.Errorf("f1 = %f, want %f", m.F1, wantF1)
	}
}

func TestEvaluateDuplicatesCountOnce(t *testing.T) {
	gt := gtWith(t, [2]int{0, 10})
	m := Evaluate([]Pair{{0, 10}, {0, 10}, {0, 10}}, gt)
	if m.TP != 1 || m.FP != 0 {
		t.Errorf("duplicate predictions double-counted: %+v", m)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	gt := gtWith(t, [2]int{0, 10})
	m := Evaluate(nil, gt)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.FN != 1 {
		t.Errorf("FN = %d", m.FN)
	}
}

func TestMetricsString(t *testing.T) {
	gt := gtWith(t, [2]int{0, 10})
	m := Evaluate([]Pair{{0, 10}}, gt)
	if got := m.String(); !strings.Contains(got, "100.00%") {
		t.Errorf("String = %q", got)
	}
}

func buildPairKBs(t *testing.T) (*kb.KB, *kb.KB) {
	t.Helper()
	mk := func(name string, uris ...string) *kb.KB {
		var triples []rdf.Triple
		for _, u := range uris {
			triples = append(triples, rdf.NewTriple(rdf.NewIRI(u), rdf.NewIRI("http://v/p"), rdf.NewLiteral("x")))
		}
		k, err := kb.FromTriples(name, triples)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	return mk("kb1", "http://a/1", "http://a/2"), mk("kb2", "http://b/1", "http://b/2")
}

func TestCSVRoundTrip(t *testing.T) {
	kb1, kb2 := buildPairKBs(t)
	e1a, _ := kb1.Lookup("http://a/1")
	e2b, _ := kb2.Lookup("http://b/2")
	gt := NewGroundTruth()
	if err := gt.Add(e1a, e2b); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := gt.WriteCSV(&sb, kb1, kb2); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), kb1, kb2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 || !back.Contains(e1a, e2b) {
		t.Errorf("round trip failed: %v", back.Pairs())
	}
}

func TestReadCSVErrors(t *testing.T) {
	kb1, kb2 := buildPairKBs(t)
	cases := []struct{ name, doc string }{
		{"no comma", "http://a/1 http://b/1"},
		{"unknown e1", "http://a/zzz,http://b/1"},
		{"unknown e2", "http://a/1,http://b/zzz"},
		{"conflict", "http://a/1,http://b/1\nhttp://a/1,http://b/2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.doc), kb1, kb2); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestReadCSVSkipsCommentsAndBlanks(t *testing.T) {
	kb1, kb2 := buildPairKBs(t)
	doc := "# header\n\nhttp://a/1,http://b/1\n"
	gt, err := ReadCSV(strings.NewReader(doc), kb1, kb2)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Len() != 1 {
		t.Errorf("len = %d", gt.Len())
	}
}
