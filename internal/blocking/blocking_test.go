package blocking

import (
	"fmt"
	"math/rand"
	"testing"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// kbFromValues builds a KB where entity i has one "name" literal.
func kbFromValues(t testing.TB, name string, values []string) *kb.KB {
	t.Helper()
	var triples []rdf.Triple
	for i, v := range values {
		triples = append(triples, rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://%s/e%03d", name, i)),
			rdf.NewIRI("http://v/name"),
			rdf.NewLiteral(v),
		))
	}
	k, err := kb.FromTriples(name, triples)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mustID(t testing.TB, k *kb.KB, uri string) kb.EntityID {
	t.Helper()
	id, ok := k.Lookup(uri)
	if !ok {
		t.Fatalf("entity %s not found", uri)
	}
	return id
}

func TestTokenBlocksBasic(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"alpha beta", "gamma"})
	kb2 := kbFromValues(t, "b", []string{"beta delta", "epsilon"})
	c := TokenBlocks(kb1, kb2)
	// Only "beta" is shared.
	if c.Size() != 1 {
		t.Fatalf("blocks = %d, want 1", c.Size())
	}
	b := c.Blocks[0]
	if b.Key != "beta" {
		t.Errorf("key = %q", b.Key)
	}
	if len(b.E1) != 1 || len(b.E2) != 1 {
		t.Errorf("block members = %d/%d", len(b.E1), len(b.E2))
	}
	if b.Comparisons() != 1 || b.Assignments() != 2 {
		t.Errorf("comparisons=%d assignments=%d", b.Comparisons(), b.Assignments())
	}
}

func TestTokenBlocksCompleteness(t *testing.T) {
	// Property: any cross-KB pair sharing at least one token co-occurs in
	// at least one block.
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"red", "green", "blue", "cyan", "magenta", "yellow", "black"}
	mkVals := func(n int) []string {
		vals := make([]string, n)
		for i := range vals {
			a := vocab[rng.Intn(len(vocab))]
			b := vocab[rng.Intn(len(vocab))]
			vals[i] = a + " " + b
		}
		return vals
	}
	kb1 := kbFromValues(t, "a", mkVals(30))
	kb2 := kbFromValues(t, "b", mkVals(30))
	c := TokenBlocks(kb1, kb2)
	idx := c.BuildIndex()
	for i := 0; i < kb1.Len(); i++ {
		e1 := kb.EntityID(i)
		cands := c.Candidates1(idx, e1)
		inCands := make(map[kb.EntityID]bool, len(cands))
		for _, e2 := range cands {
			inCands[e2] = true
		}
		toks1 := map[string]bool{}
		for _, tok := range kb1.Tokens(e1) {
			toks1[tok] = true
		}
		for j := 0; j < kb2.Len(); j++ {
			e2 := kb.EntityID(j)
			shares := false
			for _, tok := range kb2.Tokens(e2) {
				if toks1[tok] {
					shares = true
					break
				}
			}
			if shares && !inCands[e2] {
				t.Fatalf("pair (%d,%d) shares a token but is not blocked", e1, e2)
			}
			if !shares && inCands[e2] {
				t.Fatalf("pair (%d,%d) shares no token but is blocked", e1, e2)
			}
		}
	}
}

func TestNameBlocks(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"Joe's Diner", "Central Cafe"})
	kb2 := kbFromValues(t, "b", []string{"joe s diner", "Other Place"})
	c := NameBlocks(kb1, kb2, 2)
	if c.Size() != 1 {
		t.Fatalf("blocks = %d, want 1 (normalized name match)", c.Size())
	}
	if c.Blocks[0].Key != "joe s diner" {
		t.Errorf("key = %q", c.Blocks[0].Key)
	}
}

func TestNameBlocksUsesOnlyTopK(t *testing.T) {
	// Entity has a shared "comment" literal, but with k=1 only the most
	// important attribute (name, higher discriminability+support) is used.
	var triples1, triples2 []rdf.Triple
	add := func(ts *[]rdf.Triple, subj, pred, val string) {
		*ts = append(*ts, rdf.NewTriple(rdf.NewIRI(subj), rdf.NewIRI(pred), rdf.NewLiteral(val)))
	}
	for i := 0; i < 4; i++ {
		s := fmt.Sprintf("http://a/e%d", i)
		add(&triples1, s, "http://v/name", fmt.Sprintf("unique name %d", i))
		add(&triples1, s, "http://v/comment", "same comment")
	}
	for i := 0; i < 4; i++ {
		s := fmt.Sprintf("http://b/e%d", i)
		add(&triples2, s, "http://v/name", fmt.Sprintf("unique name %d", i))
		add(&triples2, s, "http://v/comment", "same comment")
	}
	kb1, err := kb.FromTriples("a", triples1)
	if err != nil {
		t.Fatal(err)
	}
	kb2, err := kb.FromTriples("b", triples2)
	if err != nil {
		t.Fatal(err)
	}
	c := NameBlocks(kb1, kb2, 1)
	for _, b := range c.Blocks {
		if b.Key == "same comment" {
			t.Error("low-importance attribute used as name with k=1")
		}
	}
	if c.Size() != 4 {
		t.Errorf("blocks = %d, want 4 unique-name blocks", c.Size())
	}
}

func TestCandidates(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"x y", "y z", "w"})
	kb2 := kbFromValues(t, "b", []string{"y", "z q", "w"})
	c := TokenBlocks(kb1, kb2)
	idx := c.BuildIndex()

	e0 := mustID(t, kb1, "http://a/e000")
	cands := c.Candidates1(idx, e0)
	// e0 has tokens {x,y}; KB2 entity 0 has y.
	if len(cands) != 1 || kb2.URI(cands[0]) != "http://b/e000" {
		t.Errorf("candidates of e0 = %v", cands)
	}

	// Entity with no shared tokens has no candidates even though it has tokens.
	if got := c.Candidates1(idx, mustID(t, kb1, "http://a/e002")); len(got) != 1 {
		// "w" IS shared with b/e002.
		t.Errorf("candidates of w-entity = %v, want [b/e002]", got)
	}
}

func TestUnion(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"x", "y"})
	kb2 := kbFromValues(t, "b", []string{"x", "y"})
	tb := TokenBlocks(kb1, kb2)
	nb := NameBlocks(kb1, kb2, 1)
	u := Union("T:", tb, "N:", nb)
	if u.Size() != tb.Size()+nb.Size() {
		t.Fatalf("union size = %d", u.Size())
	}
	if u.Comparisons() != tb.Comparisons()+nb.Comparisons() {
		t.Errorf("union comparisons = %d", u.Comparisons())
	}
}

func TestPurgeRemovesStopwordBlocks(t *testing.T) {
	// 50 distinctive 1x1 blocks plus one stop-word block containing
	// every entity.
	n := 50
	v1 := make([]string, n)
	v2 := make([]string, n)
	for i := range v1 {
		v1[i] = fmt.Sprintf("unique%02d the", i)
		v2[i] = fmt.Sprintf("unique%02d the", i)
	}
	kb1 := kbFromValues(t, "a", v1)
	kb2 := kbFromValues(t, "b", v2)
	c := TokenBlocks(kb1, kb2)
	if c.Size() != n+1 {
		t.Fatalf("blocks = %d, want %d", c.Size(), n+1)
	}
	purged, res := Purge(c, DefaultPurgeConfig())
	if res.RemovedBlocks != 1 {
		t.Fatalf("removed %d blocks, want 1 (the stop-word block); result %+v", res.RemovedBlocks, res)
	}
	if purged.Size() != n {
		t.Errorf("remaining = %d, want %d", purged.Size(), n)
	}
	if res.RemovedComparisons != int64(n)*int64(n) {
		t.Errorf("removed comparisons = %d, want %d", res.RemovedComparisons, n*n)
	}
	for _, b := range purged.Blocks {
		if b.Key == "the" {
			t.Error("stop-word block survived purging")
		}
	}

	// The ratio-knee variant must also remove it.
	purgedR, resR := PurgeByRatio(c, DefaultSmoothing)
	if resR.RemovedBlocks == 0 {
		t.Error("PurgeByRatio kept the stop-word block")
	}
	if purgedR.Comparisons() > purged.Comparisons() {
		t.Error("PurgeByRatio should be at least as aggressive here")
	}
}

func TestPurgeKeepsUniformBlocks(t *testing.T) {
	// All blocks small and the same size: nothing to purge.
	v := []string{"a b", "c d", "e f"}
	kb1 := kbFromValues(t, "x", v)
	kb2 := kbFromValues(t, "y", v)
	c := TokenBlocks(kb1, kb2)
	purged, res := Purge(c, DefaultPurgeConfig())
	if res.RemovedBlocks != 0 || purged.Size() != c.Size() {
		t.Errorf("uniform blocks purged: %+v", res)
	}
	purgedR, resR := PurgeByRatio(c, DefaultSmoothing)
	if resR.RemovedBlocks != 0 || purgedR.Size() != c.Size() {
		t.Errorf("PurgeByRatio purged uniform blocks: %+v", resR)
	}
}

func TestPurgeEmpty(t *testing.T) {
	c := NewCollection(0, 0)
	purged, res := Purge(c, DefaultPurgeConfig())
	if purged.Size() != 0 || res.RemovedBlocks != 0 {
		t.Errorf("empty purge wrong: %+v", res)
	}
	purgedR, resR := PurgeByRatio(c, DefaultSmoothing)
	if purgedR.Size() != 0 || resR.RemovedBlocks != 0 {
		t.Errorf("empty ratio purge wrong: %+v", resR)
	}
}

func TestNoPurgeKeepsEverything(t *testing.T) {
	n := 40
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("unique%02d the", i)
	}
	kb1 := kbFromValues(t, "a", vals)
	kb2 := kbFromValues(t, "b", vals)
	c := TokenBlocks(kb1, kb2)
	purged, res := Purge(c, NoPurge())
	if res.RemovedBlocks != 0 || purged.Size() != c.Size() {
		t.Errorf("NoPurge removed blocks: %+v", res)
	}
}

func TestPurgeMonotone(t *testing.T) {
	// Property: both purging variants never increase comparisons, keep
	// the block accounting consistent, and leave all survivors within
	// the cutoffs.
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%02d", i)
	}
	mkVals := func(n int) []string {
		vals := make([]string, n)
		for i := range vals {
			k := 1 + rng.Intn(4)
			s := ""
			for j := 0; j < k; j++ {
				if j > 0 {
					s += " "
				}
				s += vocab[rng.Intn(len(vocab))]
			}
			vals[i] = s
		}
		return vals
	}
	kb1 := kbFromValues(t, "a", mkVals(60))
	kb2 := kbFromValues(t, "b", mkVals(60))
	c := TokenBlocks(kb1, kb2)

	cfg := PurgeConfig{EntityFraction: 0.05, MinEntities: 2}
	purged, res := Purge(c, cfg)
	if purged.Comparisons() > c.Comparisons() {
		t.Error("purging increased comparisons")
	}
	if purged.Size()+res.RemovedBlocks != c.Size() {
		t.Error("block accounting inconsistent")
	}
	for _, b := range purged.Blocks {
		if len(b.E1) > res.Cutoff1 || len(b.E2) > res.Cutoff2 {
			t.Errorf("block %q exceeds cutoffs %d/%d", b.Key, res.Cutoff1, res.Cutoff2)
		}
	}

	purgedR, resR := PurgeByRatio(c, DefaultSmoothing)
	if purgedR.Comparisons() > c.Comparisons() {
		t.Error("ratio purging increased comparisons")
	}
	if purgedR.Size()+resR.RemovedBlocks != c.Size() {
		t.Error("ratio block accounting inconsistent")
	}
}

func TestComputeStats(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"alpha", "beta", "gamma"})
	kb2 := kbFromValues(t, "b", []string{"alpha", "beta", "delta"})
	gt := eval.NewGroundTruth()
	for _, names := range [][2]string{{"http://a/e000", "http://b/e000"}, {"http://a/e001", "http://b/e001"}, {"http://a/e002", "http://b/e002"}} {
		if err := gt.Add(mustID(t, kb1, names[0]), mustID(t, kb2, names[1])); err != nil {
			t.Fatal(err)
		}
	}
	c := TokenBlocks(kb1, kb2)
	st := ComputeStats(c, gt)
	if st.Blocks != 2 {
		t.Errorf("blocks = %d, want 2", st.Blocks)
	}
	if st.Comparisons != 2 || st.DistinctComparisons != 2 {
		t.Errorf("comparisons = %d/%d, want 2/2", st.Comparisons, st.DistinctComparisons)
	}
	if st.PairsFound != 2 {
		t.Errorf("pairs found = %d, want 2 (gamma-delta pair unreachable)", st.PairsFound)
	}
	if want := 2.0 / 3.0; st.Recall != want {
		t.Errorf("recall = %f, want %f", st.Recall, want)
	}
	if st.Precision != 1.0 {
		t.Errorf("precision = %f, want 1", st.Precision)
	}
	if st.F1 <= 0 || st.F1 > 1 {
		t.Errorf("f1 = %f out of range", st.F1)
	}
}

func TestComputeStatsCountsDistinctOnce(t *testing.T) {
	// Same pair co-occurs in two token blocks; distinct count must be 1.
	kb1 := kbFromValues(t, "a", []string{"x y"})
	kb2 := kbFromValues(t, "b", []string{"x y"})
	gt := eval.NewGroundTruth()
	if err := gt.Add(0, 0); err != nil {
		t.Fatal(err)
	}
	c := TokenBlocks(kb1, kb2)
	st := ComputeStats(c, gt)
	if st.Comparisons != 2 {
		t.Errorf("raw comparisons = %d, want 2", st.Comparisons)
	}
	if st.DistinctComparisons != 1 {
		t.Errorf("distinct = %d, want 1", st.DistinctComparisons)
	}
	if st.PairsFound != 1 || st.Recall != 1 || st.Precision != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBlocksDeterministic(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"m n o", "p q", "n p"})
	kb2 := kbFromValues(t, "b", []string{"n", "p o", "q m"})
	c1 := TokenBlocks(kb1, kb2)
	c2 := TokenBlocks(kb1, kb2)
	if c1.Size() != c2.Size() {
		t.Fatal("nondeterministic block count")
	}
	for i := range c1.Blocks {
		if c1.Blocks[i].Key != c2.Blocks[i].Key {
			t.Fatalf("block order differs at %d: %q vs %q", i, c1.Blocks[i].Key, c2.Blocks[i].Key)
		}
	}
}

func BenchmarkTokenBlocks(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vocab := make([]string, 500)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%03d", i)
	}
	mkVals := func(n int) []string {
		vals := make([]string, n)
		for i := range vals {
			s := ""
			for j := 0; j < 10; j++ {
				if j > 0 {
					s += " "
				}
				s += vocab[rng.Intn(len(vocab))]
			}
			vals[i] = s
		}
		return vals
	}
	kb1 := kbFromValues(b, "a", mkVals(1000))
	kb2 := kbFromValues(b, "b", mkVals(1000))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TokenBlocks(kb1, kb2)
	}
}
