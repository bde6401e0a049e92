package main

import (
	"math"
	"sort"
)

// metric is one reported figure. Value is the median over the rounds of
// a set-up, averaged over the run's set-ups (setup_s: the median of the
// set-ups); N counts the operations behind it; Rounds are all rounds of
// all set-ups and IQR their interquartile range, which -compare uses as
// the run's own spread.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	IQR    float64   `json:"iqr,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// overRounds reports the median of one statistic taken once per round.
func overRounds(unit string, perRound []float64, samples int) metric {
	q1, q2, q3 := quartiles(perRound)
	return metric{Value: q2, Unit: unit, N: samples, IQR: q3 - q1, Rounds: perRound}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// exclusive method), the rule the acceptance procedure applies across
// runs, so a spread printed here reads the same as one computed there.
// Fewer than two values have no spread: all three quartiles are the
// value itself (NaN for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// percentile is the nearest-rank percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder lists the tail percentiles the report may quote, in tenths
// of a percent so that the sample arithmetic stays exact.
var tailLadder = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it, or 0 when even p75 has not:
// a tail quoted from fewer samples is one or two outliers, not a
// percentile.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 0
}
