package strsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJaro(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a", "", 0},
		{"martha", "marhta", 0.944444},
		{"dixon", "dicksonx", 0.766667},
		{"jellyfish", "smellyfish", 0.896296},
		{"abc", "abc", 1},
		{"abc", "xyz", 0},
	}
	for _, tc := range tests {
		if got := Jaro(tc.a, tc.b); math.Abs(got-tc.want) > 1e-5 {
			t.Errorf("Jaro(%q,%q) = %f, want %f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.961111},
		{"dwayne", "duane", 0.840000},
		{"dixon", "dicksonx", 0.813333},
		{"abc", "abc", 1},
	}
	for _, tc := range tests {
		if got := JaroWinkler(tc.a, tc.b); math.Abs(got-tc.want) > 1e-5 {
			t.Errorf("JaroWinkler(%q,%q) = %f, want %f", tc.a, tc.b, got, tc.want)
		}
	}
}

// Properties shared by all normalized similarities.
func TestSimilarityProperties(t *testing.T) {
	sims := map[string]func(a, b string) float64{
		"Jaro":        Jaro,
		"JaroWinkler": JaroWinkler,
	}
	for name, sim := range sims {
		f := func(a, b string) bool {
			ab := sim(a, b)
			ba := sim(b, a)
			if math.Abs(ab-ba) > 1e-9 {
				return false
			}
			if ab < 0 || ab > 1+1e-9 {
				return false
			}
			return sim(a, a) > 1-1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaroWinkler("vasilis efthymiou", "vassilis efthimiou")
	}
}
