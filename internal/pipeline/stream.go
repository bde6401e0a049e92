// Anytime (streaming) matching: the heuristics emit each confirmed
// pair the moment H1–H4 agree on it, in decreasing pair quality,
// instead of accumulating everything into State and reporting at the
// end. Time-to-first-match is bounded by the cheap blocking prefix
// plus a handful of lazy candidate fills — not by KB size — and a
// budget (max pairs, max comparisons, or a context deadline) truncates
// the run to a deterministic prefix of the quality-ordered stream.
//
// Draining an unbudgeted stream yields exactly the batch plan's match
// set: the lazy per-entity candidate fills accumulate in the eager
// stages' iteration order (bit-identical similarities, same discipline
// as the delta path), H1 decisions are taken verbatim from the
// NameMatching stage, H2 and H3 decisions are mutually independent
// given the completed claim maps of the earlier heuristics, and no two
// heuristics ever emit the same pair — so the batch union's dedup is a
// no-op and any visit order reproduces the same set.
package pipeline

import (
	"context"
	"sort"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// ScoredPair is one confirmed match of a streaming run, tagged with the
// heuristic that proposed it and a quality score that decreases
// monotonically over the stream.
type ScoredPair struct {
	// Pair is the match in canonical (E1, E2) orientation.
	Pair eval.Pair
	// Score orders the stream: emitted scores never increase. The
	// integer part is the heuristic tier (H1 name matches score highest,
	// then H2, then H3); the fraction ranks pairs within a tier by their
	// schedule position.
	Score float64
	// Heuristic identifies the proposing heuristic: 1 (names), 2
	// (values), or 3 (rank aggregation). H4 is a filter, never a
	// proposer, so it does not appear.
	Heuristic uint8
}

// StreamStrategy selects the pair-quality scheduler of a streaming run
// (Params.Strategy). Both strategies order the emitting side's entities
// so that entities with the rarest shared evidence stream first; they
// differ in how block weights translate into a visit order.
type StreamStrategy uint8

const (
	// ScheduleWeightOrdered visits entities by the ARCS weight of their
	// rarest token block, descending — the comparison-scheduling idea of
	// progressive meta-blocking applied per emitting entity.
	ScheduleWeightOrdered StreamStrategy = iota
	// ScheduleBlockRoundRobin walks the token blocks in decreasing ARCS
	// weight and takes one yet-unseen entity from each per round — the
	// block-centric scheduling variant.
	ScheduleBlockRoundRobin
)

// StreamBudget bounds a streaming run. Zero values mean unlimited; the
// wall-clock budget is expressed through the run's context deadline.
type StreamBudget struct {
	// MaxPairs stops the stream after this many emitted pairs.
	MaxPairs int
	// MaxComparisons stops the stream once the lazy candidate fills
	// have accumulated this many entity-entity contributions. It is
	// checked at entity boundaries, so a given budget always truncates
	// the stream at the same deterministic point.
	MaxComparisons int64
}

// StreamConfig carries a streaming run's budget and ablation switches.
// The Disable flags mirror core.Config's: a disabled heuristic's phase
// is skipped entirely, reproducing the batch plan with the matching
// stage dropped.
type StreamConfig struct {
	Budget StreamBudget

	DisableH1, DisableH2, DisableH3, DisableH4 bool
}

// RunStream executes the anytime matching process over a fresh State,
// calling emit for every confirmed pair in decreasing quality. emit
// returning false stops the run cleanly (nil error). The run ends when
// the schedule is exhausted, a budget is reached, or the context is
// cancelled; only the last returns an error (ctx.Err()).
func RunStream(ctx context.Context, st *State, cfg StreamConfig, emit func(ScoredPair) bool) error {
	// The prefix runs eagerly: blocking, purging, indexing, weighting,
	// and H1's 1-1 name matching are all cheap compared to candidate
	// scoring, which the streaming phases perform lazily per entity.
	// The name stack and the token stack write disjoint State fields
	// (name blocks and H1 maps versus token blocks, index, and
	// weights), so they run concurrently: time-to-first-match is
	// bounded by the slower of the two stacks, not their sum.
	namePlan := []Stage{NameBlocking(), NameMatching()}
	if cfg.DisableH1 {
		namePlan = Drop(namePlan, StageNameMatching)
	}
	tokenPlan := []Stage{
		TokenBlocking(),
		BlockPurging(),
		BlockIndexing(),
		TokenWeighting(),
	}
	var nameErr error
	nameDone := make(chan struct{})
	go func() {
		defer close(nameDone)
		_, nameErr = (&Engine{Plan: namePlan}).Run(ctx, st)
	}()
	_, tokenErr := (&Engine{Plan: tokenPlan}).Run(ctx, st)
	<-nameDone
	if tokenErr != nil {
		return tokenErr
	}
	if nameErr != nil {
		return nameErr
	}
	ev := newStreamEvidence(st)
	return ev.run(ctx, cfg, ev.schedule(st.Params.Strategy), emit)
}

// streamSide lazily materializes one side's candidate lists with the
// eager stages' exact accumulation order — blocks in ascending index
// position, members in block order, neighbor contributions gathered
// before touching the shared accumulator — so every similarity, and
// every decision derived from one, is bit-identical to the batch run.
// Both sides of a streaming run and the prepared side of a delta run
// (deltaSide.side1) are one; a run builds the accessors once and fills
// from a single goroutine, so no locking is needed.
type streamSide struct {
	blocks func(e kb.EntityID) []int32  // own entity -> token blocks, ascending
	mem    func(bi int32) []kb.EntityID // opposite-side members of a block
	// neighbors returns the side's best-neighbor lists and the opposite
	// side's reverse best-neighbor index.
	neighbors   func() (top, rev [][]kb.EntityID)
	weights     []float64
	k           int
	comparisons int64 // contributions accumulated so far (StreamBudget.MaxComparisons)
	acc         *accumulator
	contribs    []neighborContrib      // neighborCands' gather buffer, reused across fills
	vc, nc      map[kb.EntityID][]Cand // memoized fills; presence marks "computed" (a nil list is a valid result)
}

// neighborContrib is one pending neighbor-similarity contribution.
type neighborContrib struct {
	id  kb.EntityID
	sim float64
}

// newStreamSide returns a side whose candidates range over an opposite
// side of n entities.
func newStreamSide(n int, weights []float64, k int) *streamSide {
	return &streamSide{
		weights: weights,
		k:       k,
		acc:     newAccumulator(n),
		vc:      make(map[kb.EntityID][]Cand),
		nc:      make(map[kb.EntityID][]Cand),
	}
}

func (s *streamSide) valueCands(e kb.EntityID) []Cand {
	if cands, done := s.vc[e]; done {
		return cands
	}
	for _, bi := range s.blocks(e) {
		w := s.weights[bi]
		members := s.mem(bi)
		s.comparisons += int64(len(members))
		for _, o := range members {
			s.acc.add(int32(o), w)
		}
	}
	cands := s.acc.topK(s.k)
	s.acc.reset()
	s.vc[e] = cands
	return cands
}

func (s *streamSide) neighborCands(e kb.EntityID) []Cand {
	if cands, done := s.nc[e]; done {
		return cands
	}
	top, rev := s.neighbors()
	// The nested value fills share s.acc; gather the neighbor
	// contributions first so the aggregation below uses it exclusively.
	contribs := s.contribs[:0]
	for _, nei := range top[e] {
		for _, cand := range s.valueCands(nei) {
			if cand.Sim <= 0 {
				continue
			}
			for _, o := range rev[cand.ID] {
				contribs = append(contribs, neighborContrib{id: o, sim: cand.Sim})
			}
		}
	}
	s.contribs = contribs
	s.comparisons += int64(len(contribs))
	for _, c := range contribs {
		s.acc.add(int32(c.id), c.sim)
	}
	cands := s.acc.topK(s.k)
	s.acc.reset()
	s.nc[e] = cands
	return cands
}

// streamEvidence orients the two lazy sides around the emitting
// (smaller) KB, exactly as the batch heuristics do via State.emission.
type streamEvidence struct {
	st           *State
	em           emission
	sideA, sideB *streamSide // A emits; B supplies the reciprocity view
}

func newStreamEvidence(st *State) *streamEvidence {
	ev := &streamEvidence{st: st, em: st.emission()}
	bt, idx := st.TokenBlocks, st.TokenIndex
	n1, n2 := st.KB1.Len(), st.KB2.Len()
	side1 := newStreamSide(n2, st.Weights, st.Params.K)
	side1.blocks = func(e kb.EntityID) []int32 { return idx.ByE1[e] }
	side1.mem = func(bi int32) []kb.EntityID { return bt.Blocks[bi].E2 }
	side2 := newStreamSide(n1, st.Weights, st.Params.K)
	side2.blocks = func(e kb.EntityID) []int32 { return idx.ByE2[e] }
	side2.mem = func(bi int32) []kb.EntityID { return bt.Blocks[bi].E1 }
	// The top-neighbor lists and reverse indexes are a KB-sized cost the
	// first matches usually never touch (a pair confirmed through the
	// value lists short-circuits past neighborCands), so they build on
	// first use instead of up front — deterministically: construction
	// depends only on the KBs and N, never on when it runs.
	var top1, top2, rev1, rev2 [][]kb.EntityID
	built := false
	ensure := func() {
		if built {
			return
		}
		built = true
		top1 = topNeighborListsN(st.KB1, st.Params.N, st.Params.workers())
		top2 = topNeighborListsN(st.KB2, st.Params.N, st.Params.workers())
		rev1, rev2 = kb.ReverseNeighbors(top1, n1), kb.ReverseNeighbors(top2, n2)
	}
	side1.neighbors = func() (top, rev [][]kb.EntityID) { ensure(); return top1, rev2 }
	side2.neighbors = func() (top, rev [][]kb.EntityID) { ensure(); return top2, rev1 }
	ev.sideA, ev.sideB = side1, side2
	if ev.em.swap {
		ev.sideA, ev.sideB = side2, side1
	}
	return ev
}

// reciprocal applies H4 to a canonical pair through the lazy fills —
// the same check as State.reciprocal, with one extra short-circuit: a
// pair already present in a side's value candidates never computes that
// side's neighbor candidates (the boolean is identical either way,
// since containsCand consults the value list first).
func (ev *streamEvidence) reciprocal(p eval.Pair) bool {
	s1, s2 := ev.sideA, ev.sideB
	if ev.em.swap {
		s1, s2 = ev.sideB, ev.sideA
	}
	return s1.holds(p.E1, p.E2) && s2.holds(p.E2, p.E1)
}

// holds reports whether target appears among e's value or neighbor
// candidates, computing the neighbor fill only when the value list
// misses.
func (s *streamSide) holds(e, target kb.EntityID) bool {
	if containsCand(s.valueCands(e), nil, target) {
		return true
	}
	return containsCand(nil, s.neighborCands(e), target)
}

// memA returns a block's members on the emitting side.
func (ev *streamEvidence) memA(bi int32) []kb.EntityID {
	if ev.em.swap {
		return ev.st.TokenBlocks.Blocks[bi].E2
	}
	return ev.st.TokenBlocks.Blocks[bi].E1
}

// schedule returns a permutation of the emitting side's entities in the
// order the streaming phases visit them. Every entity appears exactly
// once, so a drained stream covers the same decisions as the batch run.
func (ev *streamEvidence) schedule(strategy StreamStrategy) []kb.EntityID {
	if strategy == ScheduleBlockRoundRobin {
		return ev.blockRoundRobinSchedule()
	}
	return ev.weightOrderedSchedule()
}

// weightOrderedSchedule ranks each emitting entity by the ARCS weight
// of its rarest token block, descending (ties by ascending ID; entities
// in no token block close the schedule).
func (ev *streamEvidence) weightOrderedSchedule() []kb.EntityID {
	n := ev.em.sizeA
	weights := ev.st.Weights
	prio := make([]float64, n)
	for e := 0; e < n; e++ {
		for _, bi := range ev.sideA.blocks(kb.EntityID(e)) {
			if w := weights[bi]; w > prio[e] {
				prio[e] = w
			}
		}
	}
	out := make([]kb.EntityID, n)
	for i := range out {
		out[i] = kb.EntityID(i)
	}
	sort.Slice(out, func(i, j int) bool {
		if prio[out[i]] != prio[out[j]] {
			return prio[out[i]] > prio[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// blockRoundRobinSchedule walks the token blocks in decreasing ARCS
// weight (ties by block position) and takes each block's r-th
// yet-unseen emitting member per round. Entities in no token block —
// they may still hold an H1 name match — close the schedule in ID
// order.
func (ev *streamEvidence) blockRoundRobinSchedule() []kb.EntityID {
	n := ev.em.sizeA
	weights := ev.st.Weights
	order := make([]int32, len(weights))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if weights[order[i]] != weights[order[j]] {
			return weights[order[i]] > weights[order[j]]
		}
		return order[i] < order[j]
	})
	maxLen := 0
	for _, bi := range order {
		if l := len(ev.memA(bi)); l > maxLen {
			maxLen = l
		}
	}
	out := make([]kb.EntityID, 0, n)
	seen := make([]bool, n)
	take := func(e kb.EntityID) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for r := 0; r < maxLen && len(out) < n; r++ {
		for _, bi := range order {
			if members := ev.memA(bi); r < len(members) {
				take(members[r])
			}
		}
	}
	for e := 0; e < n; e++ {
		take(kb.EntityID(e))
	}
	return out
}

// run executes the three emission phases over the schedule. Phases
// descend by heuristic precision (H1, then H2, then H3) and each phase
// follows the schedule, so emitted scores never increase. H3 needs the
// complete H1/H2 claim maps — hence separate passes — but every
// per-entity decision within a phase is independent of the others, so
// the drained set equals the batch plan's regardless of schedule.
func (ev *streamEvidence) run(ctx context.Context, cfg StreamConfig, sched []kb.EntityID, emit func(ScoredPair) bool) error {
	st, em := ev.st, ev.em
	emitted := 0
	denom := float64(em.sizeA + 1)
	// send emits one confirmed pair; false stops the stream (consumer
	// gone, or the pair budget is spent).
	send := func(p eval.Pair, h uint8, pos int) bool {
		sp := ScoredPair{
			Pair:      p,
			Heuristic: h,
			Score:     float64(4-h) + float64(em.sizeA-pos)/denom,
		}
		if !emit(sp) {
			return false
		}
		emitted++
		return cfg.Budget.MaxPairs <= 0 || emitted < cfg.Budget.MaxPairs
	}
	overBudget := func() bool {
		return cfg.Budget.MaxComparisons > 0 && ev.sideA.comparisons+ev.sideB.comparisons >= cfg.Budget.MaxComparisons
	}

	// Phase 1 — H1 name matches: the cheapest and most precise evidence.
	// The decisions were already taken by the NameMatching stage; the
	// phase replays them in schedule order through the H4 filter.
	if !cfg.DisableH1 {
		for i, ea := range sched {
			if err := ctx.Err(); err != nil {
				return err
			}
			if overBudget() {
				return nil
			}
			eb, ok := em.h1A[ea]
			if !ok {
				continue
			}
			p := em.pair(ea, eb)
			if !cfg.DisableH4 && !ev.reciprocal(p) {
				continue
			}
			if !send(p, 1, i) {
				return nil
			}
		}
	}

	// Phase 2 — H2 value matches. Claims are recorded before the H4
	// check, exactly as the batch ValueMatching stage does, so the H3
	// skip sets are identical whether or not H4 discards the pair.
	h2A := make(map[kb.EntityID]struct{})
	h2B := make(map[kb.EntityID]struct{})
	if !cfg.DisableH2 {
		for i, ea := range sched {
			if err := ctx.Err(); err != nil {
				return err
			}
			if overBudget() {
				return nil
			}
			if _, done := em.h1A[ea]; done {
				continue
			}
			best, ok := firstEligible(ev.sideA.valueCands(ea), em.h1B)
			if !ok || best.Sim < 1 {
				continue
			}
			h2A[ea] = struct{}{}
			h2B[best.ID] = struct{}{}
			p := em.pair(ea, best.ID)
			if !cfg.DisableH4 && !ev.reciprocal(p) {
				continue
			}
			if !send(p, 2, i) {
				return nil
			}
		}
	}

	// Phase 3 — H3 rank aggregation over the entities no earlier
	// heuristic claimed.
	if !cfg.DisableH3 {
		for i, ea := range sched {
			if err := ctx.Err(); err != nil {
				return err
			}
			if overBudget() {
				return nil
			}
			if _, done := em.h1A[ea]; done {
				continue
			}
			if _, done := h2A[ea]; done {
				continue
			}
			skip := func(id kb.EntityID) bool {
				if _, t := em.h1B[id]; t {
					return true
				}
				_, t := h2B[id]
				return t
			}
			best, ok := aggregateRanks(ev.sideA.valueCands(ea), ev.sideA.neighborCands(ea), st.Params.Theta, skip)
			if !ok {
				continue
			}
			p := em.pair(ea, best)
			if !cfg.DisableH4 && !ev.reciprocal(p) {
				continue
			}
			if !send(p, 3, i) {
				return nil
			}
		}
	}
	return nil
}
