// Package eval holds the ground truth representation and the
// precision / recall / F1 accounting used across all experiments.
//
// Following the paper (§IV), all metrics are computed "with respect to
// the descriptions in the first KB appearing in the ground truth": the
// recall denominator is the number of ground-truth pairs, and a
// predicted pair only counts at all if its first-KB entity appears in
// the ground truth.
package eval

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"minoaner/internal/kb"
)

// Pair is a candidate or declared match between an entity of KB1 (E1)
// and an entity of KB2 (E2).
type Pair struct {
	E1 kb.EntityID
	E2 kb.EntityID
}

// Less reports whether p precedes q in the canonical (E1, E2) order.
func (p Pair) Less(q Pair) bool {
	if p.E1 != q.E1 {
		return p.E1 < q.E1
	}
	return p.E2 < q.E2
}

// SortPairs orders pairs in the canonical (E1, E2) order every layer
// reports matches in.
func SortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Less(pairs[j]) })
}

// DedupPairs removes duplicate pairs in place and returns the slice
// sorted in canonical order.
func DedupPairs(pairs []Pair) []Pair {
	seen := make(map[Pair]struct{}, len(pairs))
	out := pairs[:0]
	for _, p := range pairs {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	SortPairs(out)
	return out
}

// SortPairsBy orders any slice by the canonical (E1, E2) order of the
// pair each element maps to.
func SortPairsBy[T any](s []T, pair func(T) Pair) {
	sort.Slice(s, func(i, j int) bool { return pair(s[i]).Less(pair(s[j])) })
}

// GroundTruth is a clean-clean ER ground truth: a partial 1-1 mapping
// between the entities of two KBs.
type GroundTruth struct {
	m1 map[kb.EntityID]kb.EntityID // E1 -> E2
	m2 map[kb.EntityID]kb.EntityID // E2 -> E1
}

// NewGroundTruth returns an empty ground truth.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{
		m1: make(map[kb.EntityID]kb.EntityID),
		m2: make(map[kb.EntityID]kb.EntityID),
	}
}

// Add records that e1 matches e2. Adding a conflicting mapping for an
// already-mapped entity is an error (the benchmarks are 1-1).
func (g *GroundTruth) Add(e1, e2 kb.EntityID) error {
	if old, ok := g.m1[e1]; ok && old != e2 {
		return fmt.Errorf("eval: entity %d of KB1 already mapped to %d", e1, old)
	}
	if old, ok := g.m2[e2]; ok && old != e1 {
		return fmt.Errorf("eval: entity %d of KB2 already mapped to %d", e2, old)
	}
	g.m1[e1] = e2
	g.m2[e2] = e1
	return nil
}

// Len returns the number of ground-truth matches.
func (g *GroundTruth) Len() int { return len(g.m1) }

// Match1 returns the KB2 match of a KB1 entity.
func (g *GroundTruth) Match1(e1 kb.EntityID) (kb.EntityID, bool) {
	e2, ok := g.m1[e1]
	return e2, ok
}

// Contains reports whether (e1, e2) is a ground-truth match.
func (g *GroundTruth) Contains(e1, e2 kb.EntityID) bool {
	got, ok := g.m1[e1]
	return ok && got == e2
}

// Pairs returns all matches sorted by E1 then E2.
func (g *GroundTruth) Pairs() []Pair {
	out := make([]Pair, 0, len(g.m1))
	for e1, e2 := range g.m1 {
		out = append(out, Pair{e1, e2})
	}
	SortPairs(out)
	return out
}

// Metrics reports the quality of a set of predicted matches.
type Metrics struct {
	TP, FP, FN int
	Precision  float64 // TP / (TP+FP), in [0,1]
	Recall     float64 // TP / |ground truth|, in [0,1]
	F1         float64
}

// String renders the metrics as percentages, the way the paper reports
// them.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.2f%% R=%.2f%% F1=%.2f%%", 100*m.Precision, 100*m.Recall, 100*m.F1)
}

// Evaluate scores predicted pairs against the ground truth. Duplicate
// predictions are counted once. Predictions whose E1 entity does not
// appear in the ground truth are ignored, matching the paper's protocol
// of evaluating w.r.t. first-KB descriptions in the ground truth.
func Evaluate(pred []Pair, gt *GroundTruth) Metrics {
	seen := make(map[Pair]struct{}, len(pred))
	var tp, fp int
	for _, p := range pred {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		want, ok := gt.Match1(p.E1)
		if !ok {
			continue // E1 not in ground truth: out of scope
		}
		if want == p.E2 {
			tp++
		} else {
			fp++
		}
	}
	return newMetrics(tp, fp, gt.Len()-tp)
}

func newMetrics(tp, fp, fn int) Metrics {
	m := Metrics{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// WriteCSV serializes the ground truth as "uri1,uri2" lines resolved
// through the two KBs.
func (g *GroundTruth) WriteCSV(w io.Writer, kb1, kb2 *kb.KB) error {
	bw := bufio.NewWriter(w)
	for _, p := range g.Pairs() {
		if _, err := fmt.Fprintf(bw, "%s,%s\n", kb1.URI(p.E1), kb2.URI(p.E2)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses "uri1,uri2" lines and resolves them against the two
// KBs. Unresolvable URIs are an error: a ground truth that references
// unknown entities is corrupt.
func ReadCSV(r io.Reader, kb1, kb2 *kb.KB) (*GroundTruth, error) {
	gt := NewGroundTruth()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		u1, u2, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("eval: line %d: expected 'uri1,uri2', got %q", line, text)
		}
		e1, ok := kb1.Lookup(strings.TrimSpace(u1))
		if !ok {
			return nil, fmt.Errorf("eval: line %d: unknown KB1 entity %q", line, u1)
		}
		e2, ok := kb2.Lookup(strings.TrimSpace(u2))
		if !ok {
			return nil, fmt.Errorf("eval: line %d: unknown KB2 entity %q", line, u2)
		}
		if err := gt.Add(e1, e2); err != nil {
			return nil, fmt.Errorf("eval: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return gt, nil
}
