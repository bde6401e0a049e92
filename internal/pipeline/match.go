package pipeline

import (
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// firstEligible returns the best candidate not already claimed by H1.
func firstEligible(cands []Cand, h1Taken map[kb.EntityID]kb.EntityID) (Cand, bool) {
	for _, c := range cands {
		if _, taken := h1Taken[c.ID]; taken {
			continue
		}
		return c, true
	}
	return Cand{}, false
}

// claims answers, per side, whether H1 or H2 already matched an entity
// — what H3 must skip. Two representations give the same answers: dense
// flags, built once per run in O(|A| + |B|), and the heuristics' own
// claim maps, which cost a hash per question and nothing up front.
type claims struct {
	denseA, denseB []bool // nil: read the maps
	h1A, h1B       map[kb.EntityID]kb.EntityID
	h2A, h2B       map[kb.EntityID]struct{}
}

// denseClaimsBytes bounds what the dense flags may cost per emitting
// entity. An entity asks about itself and about up to 2K candidates, so
// flags that take a few bytes each to allocate and clear are repaid many
// times over in a batch, update or priming run, where the two sides are
// within a constant factor of each other. A delta run emits for a
// handful of entities against a whole KB: there the maps answer, and a
// request never allocates O(|KB1|) for H3.
const denseClaimsBytes = 64

// newClaims picks the representation from the two sides' sizes.
func (e emission) newClaims() *claims {
	return e.claims(e.sizeA+e.sizeB <= denseClaimsBytes*e.sizeA)
}

func (e emission) claims(dense bool) *claims {
	c := &claims{h1A: e.h1A, h1B: e.h1B, h2A: e.h2A, h2B: e.h2B}
	if !dense {
		return c
	}
	c.denseA, c.denseB = make([]bool, e.sizeA), make([]bool, e.sizeB)
	for a := range e.h1A {
		c.denseA[a] = true
	}
	for a := range e.h2A {
		c.denseA[a] = true
	}
	for b := range e.h1B {
		c.denseB[b] = true
	}
	for b := range e.h2B {
		c.denseB[b] = true
	}
	return c
}

func (c *claims) takenA(id kb.EntityID) bool {
	if c.denseA != nil {
		return c.denseA[id]
	}
	if _, t := c.h1A[id]; t {
		return true
	}
	_, t := c.h2A[id]
	return t
}

func (c *claims) takenB(id kb.EntityID) bool {
	if c.denseB != nil {
		return c.denseB[id]
	}
	if _, t := c.h1B[id]; t {
		return true
	}
	_, t := c.h2B[id]
	return t
}

// rankScratch is the working memory of aggregateRanks, held by the
// caller across entities so that a run allocates it once. The candidate
// lists are top-K cuts (a couple dozen entries), so a small slice with
// linear lookup beats a map — same sums in the same order (each ID
// accumulates its value contribution before its neighbor contribution),
// just without the hashing.
type rankScratch struct {
	scores   []idScore
	eligible []Cand
}

type idScore struct {
	id    kb.EntityID
	score float64
}

// aggregateRanks implements H3's threshold-free rank aggregation. Both
// lists are already sorted by descending similarity; the candidate at
// position i of a list of size L receives normalized rank (L-i)/L, and
// candidates absent from a list receive 0 for it. The aggregate score
// is θ·valueRank + (1-θ)·neighborRank; the top-1 candidate wins (ties
// by ascending ID).
func (s *rankScratch) aggregateRanks(value, neighbor []Cand, theta float64, skip func(kb.EntityID) bool) (kb.EntityID, bool) {
	s.scores = s.scores[:0]
	s.addList(value, theta, skip)
	s.addList(neighbor, 1-theta, skip)
	if len(s.scores) == 0 {
		return 0, false
	}
	// Top-1 by score, ties to the smallest ID — what the sorted-ID
	// scan with a strict > comparison selected.
	best := s.scores[0]
	for _, c := range s.scores[1:] {
		if c.score > best.score || (c.score == best.score && c.id < best.id) {
			best = c
		}
	}
	return best.id, true
}

// addList adds one list's normalized ranks, weighted by w, to scores.
func (s *rankScratch) addList(list []Cand, w float64, skip func(kb.EntityID) bool) {
	eligible := s.eligible[:0]
	for _, c := range list {
		if c.Sim <= 0 || skip(c.ID) {
			continue
		}
		eligible = append(eligible, c)
	}
	s.eligible = eligible
	l := float64(len(eligible))
next:
	for i, c := range eligible {
		rank := w * (l - float64(i)) / l
		for j := range s.scores {
			if s.scores[j].id == c.ID {
				s.scores[j].score += rank
				continue next
			}
		}
		s.scores = append(s.scores, idScore{id: c.ID, score: rank})
	}
}

// reciprocal implements H4: e2 must appear in e1's top-K value or
// neighbor candidates, and vice versa. Side-1 lists go through the
// lazy accessors so prepared-side runs only materialize them for the
// entities that reach this check.
func (s *State) reciprocal(p eval.Pair) bool {
	return containsCand(s.valueCands1At(p.E1), s.neighborCands1At(p.E1), p.E2) &&
		containsCand(s.ValueCands2[p.E2], s.NeighborCands2[p.E2], p.E1)
}

func containsCand(value, neighbor []Cand, id kb.EntityID) bool {
	for _, c := range value {
		if c.ID == id {
			return true
		}
	}
	for _, c := range neighbor {
		if c.ID == id {
			return true
		}
	}
	return false
}
