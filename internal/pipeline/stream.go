// Anytime (streaming) matching: the heuristics emit each confirmed
// pair the moment H1–H4 agree on it, in decreasing pair quality,
// instead of accumulating everything into State and reporting at the
// end. Everything a run derives from the inputs alone — blocks, index,
// ARCS weights, H1 decisions, schedules, neighbor lists — lives in a
// StreamBase that is built once and shared, and so do the lazy
// candidate fills: a run over an existing base reuses every fill an
// earlier run on the epoch made. A budget (max pairs, max comparisons,
// or a context deadline) truncates the run to a deterministic prefix of
// the quality-ordered stream, however warm the base. Since a budget
// only chooses where that one order stops, the base also records each
// strategy's order as far as any run got, and a later run the record
// covers replays it instead of deciding anything.
//
// Draining an unbudgeted stream yields exactly the batch plan's match
// set: the lazy per-entity candidate fills run the eager stages'
// kernels (bit-identical similarities, as on the delta path), the
// matcher takes the batch stages' per-entity decisions, H1 decisions
// are taken verbatim from the NameMatching stage, H2 and H3 decisions
// are mutually independent given the completed claim maps of the
// earlier heuristics, and no two heuristics ever emit the same pair —
// so the batch union's dedup is a no-op and any visit order reproduces
// the same set.
package pipeline

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
// which it releases when done, calling emit for every confirmed pair in
// decreasing quality. emit returning false stops the run cleanly (nil
// error). The run ends when the schedule is exhausted, a budget is
// reached, or the context is cancelled; only the last returns ctx.Err().
func RunStream(ctx context.Context, st *State, cfg StreamConfig, emit func(ScoredPair) bool) error {
	defer st.Release()
	base, err := NewStreamBase(ctx, st)
	if err != nil {
		return err
	}
	return base.Run(ctx, st.Params.Strategy, cfg, emit)
}

// StreamBase is everything a streaming run reads: the KBs and
// parameters, the name blocks, the purged token blocks with their index
// and ARCS weights, the H1 decisions, each strategy's schedule and both
// KBs' neighbor views (the last two built on first use, once), and the
// memo of candidate lists that runs fill lazily, each once. None of it
// depends on a run's budget, strategy or ablation switches, so one base
// serves any number of concurrent Run calls — an index keeps one per
// epoch — and pools their accumulators. A full-pair base (one with a
// memo) also keeps, per strategy, the longest emission order a run
// without ablations has produced: one ScoredPair per emitted match, so
// at most one per match per strategy, freed with the base.
//
//minoaner:frozen
type StreamBase struct {
	st *State // inputs and blocking artifacts; read-only once the base exists
	em emission

	// schedules holds, per StreamStrategy, a permutation of the emitting
	// side's entities in the order the phases visit them. Every entity
	// appears exactly once, so a drained stream covers the same
	// decisions as the batch run.
	schedules [2]func() []kb.EntityID
	// views is a KB-sized cost the first matches usually never touch (a
	// pair confirmed through the value lists short-circuits past the
	// neighbor fills). Construction depends only on the KBs and N, never
	// on which run triggers it.
	views func() [2]*kb.Frozen
	accs  [2]accPool // per side, across runs; see pool
	// memo keeps, per side, every candidate list a run has filled, for
	// every later run to read (nil on a prepared-side base, which lives
	// for one run).
	memo [2]*fillMemo
	// orders holds, per StreamStrategy, the longest prefix of the
	// strategy's emission order a run has recorded (memo bases only).
	orders [2]atomic.Pointer[recording]
}

// recording is a prefix of one strategy's emission order, immutable
// once published. complete marks the whole order: the run that made it
// exhausted the schedule.
type recording struct {
	pairs    []ScoredPair
	complete bool
}

// covers reports whether the recording holds every pair a run with
// this pair budget emits (maxPairs 0: unlimited).
func (r *recording) covers(maxPairs int) bool {
	return r != nil && (r.complete || (maxPairs > 0 && len(r.pairs) >= maxPairs))
}

// publish offers a run's output as strategy's recording. It replaces
// the current one only if it extends it, so a recording only grows.
func (b *StreamBase) publish(strategy StreamStrategy, pairs []ScoredPair, complete bool) {
	slot := &b.orders[strategy]
	var rec *recording
	for {
		old := slot.Load()
		if old != nil && (old.complete || len(old.pairs) > len(pairs) || (len(old.pairs) == len(pairs) && !complete)) {
			return
		}
		if rec == nil {
			rec = &recording{pairs: slices.Clone(pairs), complete: complete}
		}
		if slot.CompareAndSwap(old, rec) {
			return
		}
	}
}

// NewStreamBase derives a stream base from st, running only the
// blocking stages whose artifacts st lacks: a fresh State runs the full
// prefix (a prepared-side State, NewDeltaState, joins against its
// frozen side), and a State that already carries NameBlocks or (purged)
// TokenBlocks — an index epoch's — keeps them. The prefix is cheap
// compared to candidate scoring, which runs perform lazily per entity.
func NewStreamBase(ctx context.Context, st *State) (*StreamBase, error) {
	var plan []Stage
	if st.NameBlocks == nil {
		plan = append(plan, NameBlocking())
	}
	if st.TokenBlocks == nil {
		plan = append(plan, TokenBlocking(), BlockPurging())
	}
	index := BlockIndexing()
	if st.delta != nil {
		index = DeltaBlockIndexing()
	}
	plan = append(plan, NameMatching(), index, TokenWeighting())
	if _, err := (&Engine{Plan: plan}).Run(ctx, st); err != nil {
		return nil, err
	}
	b := &StreamBase{st: st, em: st.emission()}
	if st.delta == nil {
		b.memo = [2]*fillMemo{newFillMemo(st.KB1.Len()), newFillMemo(st.KB2.Len())}
	}
	b.schedules = [2]func() []kb.EntityID{
		sync.OnceValue(b.weightOrderedSchedule),
		sync.OnceValue(b.blockRoundRobinSchedule),
	}
	b.views = sync.OnceValue(func() [2]*kb.Frozen {
		n, w := st.Params.N, st.Params.workers()
		if st.delta != nil {
			return [2]*kb.Frozen{st.delta.Neighbors, st.KB2.Freeze(n, w)}
		}
		return [2]*kb.Frozen{st.KB1.Freeze(n, w), st.KB2.Freeze(n, w)}
	})
	return b, nil
}

// pool returns side (1 or 2)'s accumulator pool. A prepared-side base
// lives for one run, so its side 2, scored against KB1, draws from the
// Prepared's pool instead.
func (b *StreamBase) pool(side int) *accPool {
	if side == 2 && b.st.delta != nil {
		return &b.st.delta.accs
	}
	return &b.accs[side-1]
}

// memA returns a block's members on the emitting side.
func (b *StreamBase) memA(bi int32) []kb.EntityID {
	if b.em.swap {
		return b.st.TokenBlocks.Blocks[bi].E2
	}
	return b.st.TokenBlocks.Blocks[bi].E1
}

// weightOrderedSchedule ranks each emitting entity by the ARCS weight
// of its rarest token block, descending (ties by ascending ID; entities
// in no token block close the schedule).
func (b *StreamBase) weightOrderedSchedule() []kb.EntityID {
	n := b.em.sizeA
	weights := b.st.Weights
	blocksA := b.st.TokenIndex.ByE1
	if b.em.swap {
		blocksA = b.st.TokenIndex.ByE2
	}
	prio := make([]float64, n)
	for e := 0; e < n; e++ {
		for _, bi := range blocksA.Of(kb.EntityID(e)) {
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
func (b *StreamBase) blockRoundRobinSchedule() []kb.EntityID {
	n := b.em.sizeA
	weights := b.st.Weights
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
		if l := len(b.memA(bi)); l > maxLen {
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
			if members := b.memA(bi); r < len(members) {
				take(members[r])
			}
		}
	}
	for e := 0; e < n; e++ {
		take(kb.EntityID(e))
	}
	return out
}

// Run executes the three emission phases over the strategy's schedule,
// on per-run state and the base's lock-free memo, so any number may
// share the base. Phases descend by heuristic precision (H1, then H2,
// then H3) and each phase follows the schedule, so emitted scores never
// increase. H3 needs the complete H1/H2 claim maps — hence separate
// passes — but every per-entity decision within a phase is independent
// of the others, so the drained set equals the batch plan's regardless
// of schedule.
//
// A run without ablations on a memo base records what it emits and
// publishes the record when it returns. A later such run without a
// MaxComparisons budget replays the record instead, if it holds every
// pair the run would emit: no decision depends on the budget, so any
// run's output is a prefix of the strategy's one order.
func (b *StreamBase) Run(ctx context.Context, strategy StreamStrategy, cfg StreamConfig, emit func(ScoredPair) bool) error {
	out := &outlet{ctx: ctx, maxPairs: cfg.Budget.MaxPairs, emit: emit}
	plain := b.memo[0] != nil && !cfg.DisableH1 && !cfg.DisableH2 && !cfg.DisableH3 && !cfg.DisableH4
	if plain {
		switch rec := b.orders[strategy].Load(); {
		case !rec.covers(cfg.Budget.MaxPairs):
			// The run may reach past the recording: keep what it emits.
			out.record = true
			defer func() { b.publish(strategy, out.sent, out.exhausted) }()
		case cfg.Budget.MaxComparisons == 0:
			for i, sp := range rec.pairs {
				if err := out.tick(i); err != nil {
					return err
				}
				if more, err := out.send(sp); !more {
					return err
				}
			}
			return nil
		}
	}
	return b.live(strategy, cfg, out)
}

// outlet is the emit/stop tail a live and a replayed run share: the
// MaxPairs count, the context checks, and the live run's record.
type outlet struct {
	ctx      context.Context
	maxPairs int
	emit     func(ScoredPair) bool
	emitted  int

	record    bool         // keep every pair passed to emit in sent
	sent      []ScoredPair // the run's output so far, when recording
	exhausted bool         // the run emitted its whole order
}

// tick is called before the i-th step of a pass: it returns the
// context's error every cancelCheckStride steps.
func (o *outlet) tick(i int) error {
	if i%cancelCheckStride == 0 {
		return o.ctx.Err()
	}
	return nil
}

// send emits sp. It reports false when the stream must stop: the
// consumer is gone, the pair budget is spent, or the context ended (the
// error). The context is checked after every emitted pair, so a
// consumer that cancels from emit gets no further pair.
func (o *outlet) send(sp ScoredPair) (bool, error) {
	if o.record {
		o.sent = append(o.sent, sp)
	}
	if !o.emit(sp) {
		return false, nil
	}
	if o.emitted++; o.maxPairs > 0 && o.emitted >= o.maxPairs {
		return false, nil
	}
	if err := o.ctx.Err(); err != nil {
		return false, err
	}
	return true, nil
}

// live runs the phases, sending every pair through out.
func (b *StreamBase) live(strategy StreamStrategy, cfg StreamConfig, out *outlet) error {
	side1 := newLazySide(b.st, 1, b.st.TokenIndex.ByE1, b.views, b.pool(1), b.memo[0])
	side2 := newLazySide(b.st, 2, b.st.TokenIndex.ByE2, b.views, b.pool(2), b.memo[1])
	defer side1.release(b.pool(1))
	defer side2.release(b.pool(2))
	m := newMatcher(b.em, side1, side2, b.st.Params.Theta)
	if cfg.DisableH1 {
		// As in the batch plan with NameMatching dropped: nobody is claimed.
		m.h1A, m.h1B = nil, nil
	}
	sched := b.schedules[strategy]()
	denom := float64(m.sizeA + 1)
	// phase visits the schedule with heuristic h's per-entity decision
	// and sends each decided pair H4 confirms. It returns false when the
	// stream must stop: the context ended (the error), a budget is spent,
	// or the consumer is gone.
	phase := func(h uint8, decide func(ea kb.EntityID) (kb.EntityID, bool)) (bool, error) {
		for i, ea := range sched {
			if err := out.tick(i); err != nil {
				return false, err
			}
			if cfg.Budget.MaxComparisons > 0 && side1.comparisons+side2.comparisons >= cfg.Budget.MaxComparisons {
				return false, nil
			}
			eb, ok := decide(ea)
			if !ok {
				continue
			}
			p := m.pair(ea, eb)
			if !cfg.DisableH4 && !m.reciprocal(p) {
				continue
			}
			if more, err := out.send(ScoredPair{Pair: p, Heuristic: h, Score: float64(4-h) + float64(m.sizeA-i)/denom}); !more {
				return false, err
			}
		}
		return true, nil
	}

	// Phase 1 — H1 name matches: the cheapest and most precise evidence.
	// The decisions were already taken by the NameMatching stage; the
	// phase replays them in schedule order through the H4 filter.
	if !cfg.DisableH1 {
		h1 := func(ea kb.EntityID) (kb.EntityID, bool) { eb, ok := m.h1A[ea]; return eb, ok }
		if more, err := phase(1, h1); !more {
			return err
		}
	}

	// Phase 2 — H2 value matches. Claims are recorded before the H4
	// check, exactly as the batch ValueMatching stage does, so the H3
	// skip sets are identical whether or not H4 discards the pair.
	h2A := make(map[kb.EntityID]struct{})
	h2B := make(map[kb.EntityID]struct{})
	if !cfg.DisableH2 {
		h2 := func(ea kb.EntityID) (kb.EntityID, bool) {
			eb, ok := m.valueMatch(ea)
			if ok {
				h2A[ea], h2B[eb] = struct{}{}, struct{}{}
			}
			return eb, ok
		}
		if more, err := phase(2, h2); !more {
			return err
		}
	}

	// Phase 3 — H3 rank aggregation over the entities no earlier
	// heuristic claimed.
	if !cfg.DisableH3 {
		claimed := &claims{h1A: m.h1A, h1B: m.h1B, h2A: h2A, h2B: h2B}
		if b.memo[0] != nil {
			// H3 asks about every candidate it ranks: on a memo base the
			// sides' pooled flags answer by index instead of by hash. A
			// delta run reads the maps, so it never allocates O(|KB1|).
			sideA, sideB := side1, side2
			if b.em.swap {
				sideA, sideB = side2, side1
			}
			claimed.denseA = claimedFlags(sideA.flags, len(sideA.memo.value), m.h1A, h2A)
			claimed.denseB = claimedFlags(sideB.flags, len(sideB.memo.value), m.h1B, h2B)
		}
		if more, err := phase(3, func(ea kb.EntityID) (kb.EntityID, bool) { return m.rankMatch(ea, claimed) }); !more {
			return err
		}
	}
	out.exhausted = true
	return nil
}
