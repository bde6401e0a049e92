package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{10, 15, 20}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedianAndOverRounds(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	m := overRounds("ms", xs, 50)
	if m.Value != 5 || m.IQR != 6 || m.N != 50 || m.Unit != "ms" {
		t.Errorf("overRounds = %+v", m)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("percentile of one value = %v, want 4", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 39: 0, 40: 75, 99: 75, 100: 90, 200: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := declaredMetric{Better: "lower", Bound: 0.05}
	higher := declaredMetric{Better: "higher", Bound: 0.05}
	tight := func(v float64) metric {
		return metric{Value: v, Rounds: []float64{v * 0.999, v, v * 1.001}}
	}
	loose := func(v float64) metric {
		return metric{Value: v, Rounds: []float64{v * 0.8, v, v * 1.2}}
	}
	for _, tc := range []struct {
		name     string
		old, new metric
		dm       declaredMetric
		want     string
	}{
		{"same", tight(100), tight(101), lower, "ok"},
		{"slower", tight(100), tight(110), lower, "worse"},
		{"faster", tight(100), tight(90), lower, "better"},
		{"less throughput", tight(100), tight(90), higher, "worse"},
		{"noisy overlap", loose(100), loose(110), lower, "unresolved"},
		{"noisy but apart", loose(100), loose(200), lower, "worse"},
		{"single values", metric{Value: 100}, metric{Value: 120}, lower, "worse"},
	} {
		if got := verdict(tc.old, tc.new, tc.dm); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
