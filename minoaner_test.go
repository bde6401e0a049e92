package minoaner_test

import (
	"strings"
	"testing"

	"minoaner"
)

const kb1Doc = `
<http://a/r1> <http://v/name> "Joe's Diner" .
<http://a/r1> <http://v/phone> "555-1234" .
<http://a/r1> <http://v/in> <http://a/city1> .
<http://a/r2> <http://v/name> "Central Cafe" .
<http://a/r2> <http://v/in> <http://a/city1> .
<http://a/city1> <http://v/label> "Springfield" .
`

const kb2Doc = `
<http://b/x1> <http://w/title> "joe s diner" .
<http://b/x1> <http://w/tel> "555 1234" .
<http://b/x1> <http://w/locatedIn> <http://b/c1> .
<http://b/x2> <http://w/title> "central cafe" .
<http://b/x2> <http://w/locatedIn> <http://b/c1> .
<http://b/c1> <http://w/name> "Springfield" .
`

func loadPair(t *testing.T) (*minoaner.KB, *minoaner.KB) {
	t.Helper()
	kb1, err := minoaner.LoadKB("a", strings.NewReader(kb1Doc))
	if err != nil {
		t.Fatal(err)
	}
	kb2, err := minoaner.LoadKB("b", strings.NewReader(kb2Doc))
	if err != nil {
		t.Fatal(err)
	}
	return kb1, kb2
}

func TestLoadKB(t *testing.T) {
	kb1, _ := loadPair(t)
	if kb1.Len() != 3 {
		t.Errorf("entities = %d, want 3", kb1.Len())
	}
	st := kb1.Stats()
	if st.Triples != 6 || st.Relations != 1 || st.Attributes != 3 {
		t.Errorf("stats = %+v", st)
	}
	if kb1.Name() != "a" {
		t.Errorf("name = %q", kb1.Name())
	}
}

func TestLoadKBErrors(t *testing.T) {
	if _, err := minoaner.LoadKB("bad", strings.NewReader("not ntriples")); err == nil {
		t.Error("malformed document accepted")
	}
	if _, err := minoaner.LoadKBFile("nope", "/does/not/exist.nt"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestResolveEndToEnd(t *testing.T) {
	kb1, kb2 := loadPair(t)
	res, err := minoaner.Resolve(kb1, kb2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"http://a/r1":    "http://b/x1",
		"http://a/r2":    "http://b/x2",
		"http://a/city1": "http://b/c1",
	}
	got := map[string]string{}
	for _, m := range res.Matches {
		got[m.URI1] = m.URI2
	}
	for u1, u2 := range want {
		if got[u1] != u2 {
			t.Errorf("%s matched to %q, want %q (all: %v)", u1, got[u1], u2, res.Matches)
		}
	}
	if res.ByName+res.ByValue+res.ByRank < len(res.Matches) {
		t.Errorf("heuristic accounting inconsistent: %+v", res)
	}
}

func TestResolveInvalidConfig(t *testing.T) {
	kb1, kb2 := loadPair(t)
	if _, err := minoaner.Resolve(kb1, kb2, minoaner.Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestGroundTruthEvaluate(t *testing.T) {
	kb1, kb2 := loadPair(t)
	gtDoc := "http://a/r1,http://b/x1\nhttp://a/r2,http://b/x2\n"
	gt, err := minoaner.LoadGroundTruth(kb1, kb2, strings.NewReader(gtDoc))
	if err != nil {
		t.Fatal(err)
	}
	if gt.Len() != 2 {
		t.Fatalf("gt len = %d", gt.Len())
	}
	res, err := minoaner.Resolve(kb1, kb2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Evaluate(gt)
	if m.F1 != 1 {
		t.Errorf("metrics = %v", m)
	}
	if !strings.Contains(m.String(), "F1=100.00%") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestBenchmarkNames(t *testing.T) {
	names := minoaner.BenchmarkNames()
	if len(names) != 4 || names[0] != "Restaurant" {
		t.Errorf("names = %v", names)
	}
}

func TestGenerateBenchmarkAndResolve(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := minoaner.Resolve(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Evaluate(b.GroundTruth)
	if m.F1 < 0.95 {
		t.Errorf("Restaurant F1 = %v", m)
	}
}

func TestGenerateBenchmarkUnknown(t *testing.T) {
	if _, err := minoaner.GenerateBenchmark("Nope", 1, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBenchmarkSerialization(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var nt1, nt2, gtCSV strings.Builder
	if err := b.WriteKB1(&nt1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteKB2(&nt2); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteGroundTruth(&gtCSV); err != nil {
		t.Fatal(err)
	}
	// Round-trip: reload through the public API and evaluate.
	kb1, err := minoaner.LoadKB("kb1", strings.NewReader(nt1.String()))
	if err != nil {
		t.Fatal(err)
	}
	kb2, err := minoaner.LoadKB("kb2", strings.NewReader(nt2.String()))
	if err != nil {
		t.Fatal(err)
	}
	gt, err := minoaner.LoadGroundTruth(kb1, kb2, strings.NewReader(gtCSV.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := minoaner.Resolve(kb1, kb2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Evaluate(gt); m.F1 < 0.95 {
		t.Errorf("round-tripped benchmark F1 = %v", m)
	}
}

func TestKBBinaryRoundTripThroughFacade(t *testing.T) {
	kb1, _ := loadPair(t)
	var buf strings.Builder
	if err := kb1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := minoaner.ReadKBBinary(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != kb1.Len() || back.Stats() != kb1.Stats() {
		t.Errorf("round trip changed the KB: %+v vs %+v", back.Stats(), kb1.Stats())
	}
	if _, err := minoaner.ReadKBBinary(strings.NewReader("junk")); err == nil {
		t.Error("corrupt binary accepted")
	}
}

func TestAblationFlagsExposed(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := minoaner.DefaultConfig()
	cfg.DisableH1 = true
	res, err := minoaner.Resolve(b.KB1, b.KB2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ByName != 0 {
		t.Errorf("H1 ran while disabled: %d", res.ByName)
	}
}
