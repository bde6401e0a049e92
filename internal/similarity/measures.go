// Package similarity implements the baseline measures (Cosine,
// Jaccard, Generalized Jaccard, SiGMa) over TF / TF-IDF weighted token
// n-gram profiles used by BSL.
package similarity

// Measure selects one of the four similarity functions of the BSL
// baseline (paper §IV, configuration (iii)).
type Measure uint8

const (
	// Cosine is the cosine of the weighted profiles.
	Cosine Measure = iota
	// Jaccard is the set Jaccard coefficient over profile terms,
	// ignoring weights.
	Jaccard
	// GeneralizedJaccard is Σ min(w_a, w_b) / Σ max(w_a, w_b) over the
	// weighted profiles.
	GeneralizedJaccard
	// SiGMa is the weighted-overlap measure of Lacoste-Julien et al.:
	// shared weight divided by total minus shared weight, with a shared
	// term contributing the mean of its two side weights.
	SiGMa
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case Cosine:
		return "Cosine"
	case Jaccard:
		return "Jaccard"
	case GeneralizedJaccard:
		return "GeneralizedJaccard"
	case SiGMa:
		return "SiGMa"
	default:
		return "Measure(?)"
	}
}

// AllMeasures lists every measure in sweep order.
var AllMeasures = []Measure{Cosine, Jaccard, GeneralizedJaccard, SiGMa}

// Compare evaluates the measure on two profiles. All measures return
// values in [0,1]; empty profiles yield 0.
func Compare(m Measure, a, b Profile) float64 {
	switch m {
	case Cosine:
		return cosine(a, b)
	case Jaccard:
		return jaccard(a, b)
	case GeneralizedJaccard:
		return generalizedJaccard(a, b)
	case SiGMa:
		return sigmaSim(a, b)
	default:
		return 0
	}
}

func cosine(a, b Profile) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Term < b[j].Term:
			i++
		case a[i].Term > b[j].Term:
			j++
		default:
			dot += a[i].W * b[j].W
			i++
			j++
		}
	}
	if dot == 0 {
		return 0
	}
	return dot / (a.Norm() * b.Norm())
}

func jaccard(a, b Profile) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var inter int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Term < b[j].Term:
			i++
		case a[i].Term > b[j].Term:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

func generalizedJaccard(a, b Profile) float64 {
	var minSum, maxSum float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Term < b[j].Term:
			maxSum += a[i].W
			i++
		case a[i].Term > b[j].Term:
			maxSum += b[j].W
			j++
		default:
			minSum += min64(a[i].W, b[j].W)
			maxSum += max64(a[i].W, b[j].W)
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		maxSum += a[i].W
	}
	for ; j < len(b); j++ {
		maxSum += b[j].W
	}
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

func sigmaSim(a, b Profile) float64 {
	var shared float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Term < b[j].Term:
			i++
		case a[i].Term > b[j].Term:
			j++
		default:
			shared += (a[i].W + b[j].W) / 2
			i++
			j++
		}
	}
	total := a.Sum() + b.Sum() - shared
	if total == 0 {
		return 0
	}
	return shared / total
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
