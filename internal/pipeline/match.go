package pipeline

import (
	"slices"
	"sync"
	"sync/atomic"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// The matcher: H2-H4 decided per entity, once, over a pair of evidence
// sides. Every engine drives it — the batch, delta and update stages
// over the emitting entities in ID order, a stream over its schedule —
// so the four engines share their decisions, not just their results.

// side is one KB's per-entity evidence: its top-K value and neighbor
// candidates.
type side interface {
	value(e kb.EntityID) []Cand
	neighbor(e kb.EntityID) []Cand
}

// dense is a side over materialized candidate arrays: both sides of a
// batch or update run, the delta side of a delta run.
type dense struct{ vc, nc [][]Cand }

func (d dense) value(e kb.EntityID) []Cand    { return d.vc[e] }
func (d dense) neighbor(e kb.EntityID) []Cand { return d.nc[e] }

// lazySide is a side whose lists are filled on first use, through the
// same two kernels the eager stages run, so every similarity is
// bit-identical to theirs: the prepared side of a delta run and both
// sides of a stream. A run fills from one goroutine. A delta run keeps
// its fills to itself; the runs of a stream base share theirs through
// the base's memo without locking.
type lazySide struct {
	side       int                  // 1 or 2: the KB whose entities this side scores
	blocks     *blocking.IndexSide  // entity -> purged token blocks, ascending
	bt         *blocking.Collection // the purged B_T the block positions index
	weights    []float64            // ARCS weight per block of bt
	views      func() [2]*kb.Frozen // both KBs' neighbor views; nil until a delta run's neighbor stage
	k          int
	acc        *accumulator
	vals, neis lazyFills // the value and the neighbor lists
	memo       *fillMemo // the stream base's memo of this side; nil on a delta run
	flags      *runFlags // this run's charged flags over memo, drawn from it

	comparisons int64 // contributions charged so far (StreamBudget.MaxComparisons)
}

// fill is one lazily computed candidate list with the contributions
// its kernel accumulated, which every run that reads it is charged.
type fill struct {
	cands []Cand
	cost  int64
}

// fillMemo holds one side's fills on a stream base, shared by every run
// over it: one slot per entity and list kind, published once by the
// first run that fills it. An entity's lists are a pure function of the
// base's KBs and the kernels are deterministic, so a run that loses a
// race to publish adopts the winner's bit-identical fill. The memo
// grows to at most the side's batch candidate lists and dies with the
// base.
type fillMemo struct {
	value, neighbor []atomic.Pointer[fill]
	flags           sync.Pool // *runFlags, cleared, across runs
}

func newFillMemo(n int) *fillMemo {
	return &fillMemo{value: make([]atomic.Pointer[fill], n), neighbor: make([]atomic.Pointer[fill], n)}
}

// runFlags record which memo fills one run has charged: a run is
// charged for a fill the first time it reads it, as if it had filled
// it, so a MaxComparisons budget cuts a stream at the same point
// however warm the memo is. claimed is the run's dense H3 claims over
// the side's entities, made when a run first reaches H3.
type runFlags struct {
	value, neighbor bitset
	claimed         []bool
}

// claimedFlags returns the side's n dense claim flags set for every
// entity h1 or h2 claimed.
func claimedFlags[V any](f *runFlags, n int, h1 map[kb.EntityID]V, h2 map[kb.EntityID]struct{}) []bool {
	if f.claimed == nil {
		f.claimed = make([]bool, n)
	}
	for e := range h1 {
		f.claimed[e] = true
	}
	for e := range h2 {
		f.claimed[e] = true
	}
	return f.claimed
}

// bitset is a dense set of entity IDs.
type bitset []uint64

func (b bitset) has(e kb.EntityID) bool { return b[e>>6]&(1<<(e&63)) != 0 }
func (b bitset) set(e kb.EntityID)      { b[e>>6] |= 1 << (e & 63) }

// lazyFills keeps one kind of a lazy side's lists: in the base's memo
// slots, charged per run by a flag, or — on a delta run, which lives
// for one request and must not allocate per KB1 entity — in the run's
// own map, where presence marks a list filled and charged (a nil list
// is a valid result).
type lazyFills struct {
	memo    []atomic.Pointer[fill] // nil on a delta run
	charged bitset
	own     map[kb.EntityID][]Cand
}

// lookup returns e's fill, whether it has been made, and whether this
// run has been charged for it.
func (l *lazyFills) lookup(e kb.EntityID) (f fill, made, charged bool) {
	if l.memo == nil {
		f.cands, made = l.own[e]
		return f, made, made
	}
	if p := l.memo[e].Load(); p != nil {
		return *p, true, l.charged.has(e)
	}
	return fill{}, false, false
}

// keep records a fill just made for e and returns the one e keeps: in
// the memo, whichever run published first.
func (l *lazyFills) keep(e kb.EntityID, f fill) fill {
	if l.memo == nil {
		l.own[e] = f.cands
		return f
	}
	p := &fill{cands: f.cands, cost: f.cost}
	if !l.memo[e].CompareAndSwap(nil, p) {
		return *l.memo[e].Load()
	}
	return f
}

// newLazySide returns side (1 or 2) of st's pair over its purged token
// blocks and weights, its accumulator drawn from pool (nil: allocated)
// and its lists kept in memo (nil: per run).
func newLazySide(st *State, side int, blocks *blocking.IndexSide, views func() [2]*kb.Frozen, pool *accPool, memo *fillMemo) *lazySide {
	s := &lazySide{
		side:    side,
		blocks:  blocks,
		bt:      st.TokenBlocks,
		weights: st.Weights,
		views:   views,
		k:       st.Params.K,
		acc:     pool.get(oppositeSize(st.TokenBlocks, side)),
		memo:    memo,
	}
	if memo == nil {
		s.vals.own, s.neis.own = make(map[kb.EntityID][]Cand), make(map[kb.EntityID][]Cand)
		return s
	}
	s.flags, _ = memo.flags.Get().(*runFlags)
	if s.flags == nil {
		words := (len(memo.value) + 63) / 64
		s.flags = &runFlags{value: make(bitset, words), neighbor: make(bitset, words)}
	}
	s.vals = lazyFills{memo: memo.value, charged: s.flags.value}
	s.neis = lazyFills{memo: memo.neighbor, charged: s.flags.neighbor}
	return s
}

// release hands the run's scratch back: the accumulator to pool, the
// charged flags, cleared, to the memo.
func (s *lazySide) release(pool *accPool) {
	pool.put(s.acc)
	if s.memo != nil {
		clear(s.flags.value)
		clear(s.flags.neighbor)
		clear(s.flags.claimed)
		s.memo.flags.Put(s.flags)
	}
}

func (s *lazySide) value(e kb.EntityID) []Cand {
	f, made, charged := s.vals.lookup(e)
	if charged {
		return f.cands
	}
	if !made {
		f = s.vals.keep(e, s.take(s.acc.addValueEvidence(s.blocks.Of(e), s.bt, s.side, s.weights)))
	}
	return s.charge(&s.vals, e, f)
}

func (s *lazySide) neighbor(e kb.EntityID) []Cand {
	f, made, charged := s.neis.lookup(e)
	if charged {
		return f.cands
	}
	views := s.views()
	top := views[s.side-1].Top(e)
	// The kernel reads the neighbors' value lists through s, so a run is
	// charged for them before e's own list, whether it fills that list
	// or finds it made; and a value fill runs on s.acc: fill them before
	// the kernel takes it.
	for _, nei := range top {
		s.value(nei)
	}
	if !made {
		f = s.neis.keep(e, s.take(s.acc.addNeighborEvidence(top, s, views[2-s.side].RevLists())))
	}
	return s.charge(&s.neis, e, f)
}

// take cuts the accumulated evidence to a top-K fill of the given cost.
func (s *lazySide) take(cost int64) fill {
	cands := s.acc.topK(s.k)
	s.acc.reset()
	return fill{cands: cands, cost: cost}
}

// charge charges f, e's fill in l, to the run and returns its list.
func (s *lazySide) charge(l *lazyFills, e kb.EntityID, f fill) []Cand {
	if l.memo != nil {
		l.charged.set(e)
	}
	s.comparisons += f.cost
	return f.cands
}

// matcher decides H2-H4 over the sides of one run, oriented around the
// emitting KB exactly as the batch heuristics are (emission).
type matcher struct {
	emission
	side1, side2 side
	a            side // the emitting side
	theta        float64
	ranks        rankScratch
}

func newMatcher(em emission, side1, side2 side, theta float64) *matcher {
	m := &matcher{emission: em, side1: side1, side2: side2, a: side1, theta: theta}
	if em.swap {
		m.a = side2
	}
	return m
}

// matcher returns the matcher over the state's evidence: the
// materialized arrays, with side 1 lazy on a delta run.
func (s *State) matcher() *matcher {
	var side1 side = dense{s.ValueCands1, s.NeighborCands1}
	if s.lazy1 != nil {
		side1 = s.lazy1
	}
	return newMatcher(s.emission(), side1, dense{s.ValueCands2, s.NeighborCands2}, s.Params.Theta)
}

// valueMatch is H2 for one emitting entity H1 left unmatched: its best
// candidate H1 did not claim wins if the value similarity reaches 1 —
// many common, infrequent tokens.
func (m *matcher) valueMatch(ea kb.EntityID) (kb.EntityID, bool) {
	if _, done := m.h1A[ea]; done {
		return 0, false
	}
	best, ok := firstEligible(m.a.value(ea), m.h1B)
	return best.ID, ok && best.Sim >= 1
}

// rankMatch is H3 for one emitting entity no earlier heuristic claimed:
// its top-1 unclaimed candidate under the θ-weighted sum of normalized
// value and neighbor ranks.
func (m *matcher) rankMatch(ea kb.EntityID, claimed *claims) (kb.EntityID, bool) {
	if claimed.takenA(ea) {
		return 0, false
	}
	return m.ranks.aggregateRanks(m.a.value(ea), m.a.neighbor(ea), m.theta, claimed.takenB)
}

// reciprocal is H4 for a canonical pair: E2 must appear in E1's top-K
// value or neighbor candidates, and vice versa.
func (m *matcher) reciprocal(p eval.Pair) bool {
	return holds(m.side1, p.E1, p.E2) && holds(m.side2, p.E2, p.E1)
}

// holds reports whether target is among e's candidates. The value list
// answers first; a lazy side fills e's neighbor list only on a miss.
func holds(s side, e, target kb.EntityID) bool {
	is := func(c Cand) bool { return c.ID == target }
	return slices.ContainsFunc(s.value(e), is) || slices.ContainsFunc(s.neighbor(e), is)
}

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
