package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

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

func TestBuildProfilesTF(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"red red blue"})
	kb2 := kbFromValues(t, "b", []string{"red green"})
	ps := BuildProfiles(kb1, kb2, 1, TF)
	if len(ps.P1) != 1 || len(ps.P2) != 1 {
		t.Fatalf("profile counts: %d/%d", len(ps.P1), len(ps.P2))
	}
	// P1[0] has red:2, blue:1.
	var redW, blueW float64
	for _, e := range ps.P1[0] {
		switch e.W {
		case 2:
			redW = e.W
		case 1:
			blueW = e.W
		}
	}
	if redW != 2 || blueW != 1 {
		t.Errorf("TF weights wrong: %+v", ps.P1[0])
	}
}

func TestBuildProfilesTFIDF(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"common rare1", "common rare2"})
	kb2 := kbFromValues(t, "b", []string{"common rare3"})
	ps := BuildProfiles(kb1, kb2, 1, TFIDF)
	// "common" appears in all 3 entities; its IDF must be lower than a
	// rare term's.
	findW := func(p Profile, terms map[int32]string, name string) float64 {
		for _, e := range p {
			if terms[e.Term] == name {
				return e.W
			}
		}
		return -1
	}
	// Rebuild term names by re-tokenizing: common=shared term in both profiles.
	// Instead compare: every profile has 2 entries; the weights must differ.
	p := ps.P1[0]
	if len(p) != 2 {
		t.Fatalf("profile size = %d", len(p))
	}
	if p[0].W == p[1].W {
		t.Error("TF-IDF assigned equal weight to common and rare term")
	}
	_ = findW
}

func TestBuildProfilesNGrams(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"new york city"})
	kb2 := kbFromValues(t, "b", []string{"new york state"})
	ps := BuildProfiles(kb1, kb2, 2, TF)
	// Bigrams of e1: "new york", "york city" → 2 entries.
	if len(ps.P1[0]) != 2 {
		t.Errorf("bigram profile = %+v", ps.P1[0])
	}
	ps3 := BuildProfiles(kb1, kb2, 3, TF)
	if len(ps3.P1[0]) != 1 {
		t.Errorf("trigram profile = %+v", ps3.P1[0])
	}
}

func mkProfile(pairs ...[2]float64) Profile {
	p := make(Profile, 0, len(pairs))
	for _, pr := range pairs {
		p = append(p, Entry{Term: int32(pr[0]), W: pr[1]})
	}
	sort.Slice(p, func(i, j int) bool { return p[i].Term < p[j].Term })
	return p
}

func TestCosine(t *testing.T) {
	a := mkProfile([2]float64{0, 1}, [2]float64{1, 1})
	b := mkProfile([2]float64{0, 1}, [2]float64{1, 1})
	if got := Compare(Cosine, a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical cosine = %f", got)
	}
	c := mkProfile([2]float64{2, 1})
	if got := Compare(Cosine, a, c); got != 0 {
		t.Errorf("orthogonal cosine = %f", got)
	}
	d := mkProfile([2]float64{0, 1})
	want := 1 / math.Sqrt2
	if got := Compare(Cosine, a, d); math.Abs(got-want) > 1e-12 {
		t.Errorf("cosine = %f, want %f", got, want)
	}
}

func TestJaccard(t *testing.T) {
	a := mkProfile([2]float64{0, 5}, [2]float64{1, 5})
	b := mkProfile([2]float64{1, 1}, [2]float64{2, 1})
	// Intersection {1}, union {0,1,2}.
	if got := Compare(Jaccard, a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("jaccard = %f", got)
	}
	if got := Compare(Jaccard, nil, b); got != 0 {
		t.Errorf("empty jaccard = %f", got)
	}
}

func TestGeneralizedJaccard(t *testing.T) {
	a := mkProfile([2]float64{0, 2}, [2]float64{1, 1})
	b := mkProfile([2]float64{0, 1}, [2]float64{1, 3})
	// min: 1+1=2; max: 2+3=5.
	if got := Compare(GeneralizedJaccard, a, b); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("gen jaccard = %f", got)
	}
	// Identical profiles → 1.
	if got := Compare(GeneralizedJaccard, a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self gen jaccard = %f", got)
	}
}

func TestSiGMaMeasure(t *testing.T) {
	a := mkProfile([2]float64{0, 1}, [2]float64{1, 1})
	b := mkProfile([2]float64{0, 1}, [2]float64{2, 1})
	// shared = (1+1)/2 = 1; total = 2 + 2 - 1 = 3.
	if got := Compare(SiGMa, a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("sigma = %f", got)
	}
	if got := Compare(SiGMa, a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self sigma = %f", got)
	}
}

func TestMeasureNames(t *testing.T) {
	names := map[Measure]string{Cosine: "Cosine", Jaccard: "Jaccard", GeneralizedJaccard: "GeneralizedJaccard", SiGMa: "SiGMa"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%v name = %q", m, m.String())
		}
	}
	if TF.String() != "TF" || TFIDF.String() != "TF-IDF" {
		t.Error("scheme names wrong")
	}
	if Measure(99).String() != "Measure(?)" {
		t.Error("unknown measure name wrong")
	}
}

// Property: every measure is symmetric, bounded in [0,1], and maximal on
// identical profiles.
func TestMeasureProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randProfile := func() Profile {
		n := rng.Intn(8)
		seen := map[int32]bool{}
		var p Profile
		for i := 0; i < n; i++ {
			term := int32(rng.Intn(20))
			if seen[term] {
				continue
			}
			seen[term] = true
			p = append(p, Entry{Term: term, W: rng.Float64()*3 + 0.01})
		}
		sort.Slice(p, func(i, j int) bool { return p[i].Term < p[j].Term })
		return p
	}
	for trial := 0; trial < 200; trial++ {
		a, b := randProfile(), randProfile()
		for _, m := range AllMeasures {
			ab := Compare(m, a, b)
			ba := Compare(m, b, a)
			if math.Abs(ab-ba) > 1e-9 {
				t.Fatalf("%v asymmetric: %f vs %f", m, ab, ba)
			}
			if ab < 0 || ab > 1+1e-9 {
				t.Fatalf("%v out of range: %f", m, ab)
			}
			if len(a) > 0 {
				self := Compare(m, a, a)
				if self < ab-1e-9 {
					t.Fatalf("%v self-similarity %f below cross similarity %f", m, self, ab)
				}
			}
		}
	}
}
