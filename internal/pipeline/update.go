// Epoch updates: the stages that absorb a KB mutation into an already
// resolved pair without re-deriving the whole pair. The previous
// epoch's two one-sided blocking substrates (Cache) are patched for the
// keys whose members moved and then joined, purged and weighted by the
// batch plan's own stages; candidate lists are recomputed only for the
// entities whose evidence could have changed (the "affected" sets), and
// the matching passes H1-H4 rerun in full over the new evidence. "In full"
// is linear in the emitting KB, not in the mutation: H3 alone visits
// every unclaimed entity's two candidate lists, about a tenth of a
// one-entity update, so it reads the earlier claims from dense flags
// and allocates nothing per entity (match.go). The other cost a
// mutation cannot avoid is the carry-over: an insert or delete shifts
// every later ID of its side, so every list that names that side's
// entities — its own best-neighbor lists, the opposite side's candidate
// lists — is rewritten, into one backing array per claimed range
// (updateTops, carryCands); a mutation that shifts nothing shares the
// previous epoch's lists as they are.
//
// The update plan is bit-identical to the full plan over the mutated
// KBs: patched substrates hold exactly what Prepare builds over the
// mutated KBs, so their joins are the full construction's blocks in the
// same order; reused candidate lists are exactly what the eager stages
// would recompute (their inputs are untouched — weights, members, and
// iteration order all unchanged, so every float accumulates
// identically), and affected entities are recomputed with the eager
// stages' accumulation order. Affected sets over-approximate
// deliberately: recomputing an unchanged entity reproduces its list;
// missing a changed one would be a correctness bug, and the
// rebuild-equivalence suites exist to catch exactly that.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// Cache is the scoring substrate one epoch carries to make the next
// mutation incremental: both sides' one-sided blocking substrates
// (the next update reads which token blocks were live from their
// postings) and neighbor views, B_N and the purged B_T (what queries
// serve; the next update scans it only when the purge cutoffs move),
// the purge result, and the candidate lists. All fields are immutable
// once published.
//
//minoaner:frozen
type Cache struct {
	// Side1 and Side2 are the two KBs frozen as a delta run's prepared
	// side is; Side1 is the epoch's delta substrate. Each view names the
	// epoch's KB of its side.
	Side1, Side2 *Prepared

	NameBlocks  *blocking.Collection // the epoch's B_N
	TokenBlocks *blocking.Collection // B_T after purging
	Purge       blocking.PurgeResult // the epoch's purge cutoffs

	VC1, VC2 [][]Cand
	NC1, NC2 [][]Cand

	// The epoch's matching outputs, carried so an update whose evidence
	// comes out unchanged (a mutation that touched nothing the other
	// side shares, see EvidenceUnchanged) adopts them instead of
	// rerunning H1-H4.
	// MatchesValid marks them present (Matches may legitimately be
	// empty).
	H1, H2, H3, Matches []eval.Pair
	Discarded           int
	MatchesValid        bool
}

// SetMatches records the epoch's matching outputs on the cache (the
// adoption source of evidence-unchanged updates).
//
//minoaner:mutator runs while the cache is being primed or built, before it is published to readers
func (c *Cache) SetMatches(h1, h2, h3, matches []eval.Pair, discarded int) {
	c.H1, c.H2, c.H3, c.Matches, c.Discarded, c.MatchesValid = h1, h2, h3, matches, discarded, true
}

// NewCache primes the scoring substrate from a resolved state: st must
// carry the KBs, the parameters, and the purged token collection (as a
// loaded or built index does). The one-sided substrates are built
// fresh, and candidate lists the state lacks are recomputed, the
// neighbor pass over the substrates' own views. This is the one-time
// cost of making an index mutable.
func NewCache(ctx context.Context, st *State, nameBlocks *blocking.Collection, purge blocking.PurgeResult) (*Cache, error) {
	side1, side2 := PrepareSide(st.KB1, st.Params), PrepareSide(st.KB2, st.Params)
	if st.ValueCands1 == nil {
		eng := Engine{Plan: []Stage{BlockIndexing(), TokenWeighting(), ValueCandidates()}}
		if _, err := eng.Run(ctx, st); err != nil {
			return nil, err
		}
	}
	if st.NeighborCands1 == nil {
		var err error
		st.NeighborCands1, st.NeighborCands2, err = neighborCandidates(ctx, side1.Neighbors, side2.Neighbors,
			st.ValueCands1, st.ValueCands2, st.Params.K, st.Params.workers())
		if err != nil {
			return nil, err
		}
	}
	return &Cache{
		Side1:       side1,
		Side2:       side2,
		NameBlocks:  nameBlocks,
		TokenBlocks: st.TokenBlocks,
		Purge:       purge,
		VC1:         st.ValueCands1,
		VC2:         st.ValueCands2,
		NC1:         st.NeighborCands1,
		NC2:         st.NeighborCands2,
	}, nil
}

// updateSide is the per-run working set of an update State.
type updateSide struct {
	prev       *Cache
	old1, old2 *kb.KB
	d1, d2     *kb.Diff
	next       *Cache

	// Stage-to-stage scratch.
	prep1, prep2 *blocking.Prepared // the patched one-sided substrates
	pt1, pt2     blocking.PreparedPatch
	// namesUnchanged marks that B_N's inputs did not move: on either
	// side, the name attributes stayed, no ID shifted, and no name
	// posting changed (set by patchSides).
	namesUnchanged         bool
	affV1, affV2           []bool // value-affected entities (new ID space)
	vcChanged1, vcChanged2 []bool // entities whose recomputed value list actually differs
	affectedV1Count        int
	affectedV2Count        int
	affectedN1, affectedN2 int
}

// NewUpdateState prepares the blackboard for one epoch update: prev is
// the previous epoch's substrate over (old1, old2), and the run
// resolves the mutated pair (new1, new2). Diffs are computed here; an
// unmutated side passes the same *kb.KB on both arguments and costs
// nothing.
func NewUpdateState(prev *Cache, old1, old2, new1, new2 *kb.KB, p Params) (*State, error) {
	if prev == nil || prev.Side1 == nil || prev.Side2 == nil || prev.TokenBlocks == nil || prev.NameBlocks == nil {
		return nil, errors.New("pipeline: update state requires a primed substrate (NewCache)")
	}
	if len(prev.VC1) != old1.Len() || len(prev.VC2) != old2.Len() {
		return nil, fmt.Errorf("pipeline: substrate covers (%d,%d) entities, previous KBs have (%d,%d)",
			len(prev.VC1), len(prev.VC2), old1.Len(), old2.Len())
	}
	st := NewState(new1, new2, p)
	st.update = &updateSide{
		prev: prev,
		old1: old1,
		old2: old2,
		d1:   kb.ComputeDiff(old1, new1),
		d2:   kb.ComputeDiff(old2, new2),
		next: &Cache{},
	}
	return st, nil
}

// UpdatedCache returns the substrate the update stages assembled for
// the new epoch (valid after the plan ran to completion).
func (s *State) UpdatedCache() *Cache { return s.update.next }

// UpdatePlan returns the epoch-update counterpart of DefaultPlan. The
// affected-set stages keep the standard stage names — plan edits
// (ablation drops) and progress reporting work identically — and
// blocking, purging, token weighting, and the four matching heuristics
// are the very same stages the full plan runs.
func UpdatePlan() []Stage {
	return append(UpdatePatchPlan(), UpdateMatchPlan()...)
}

// UpdatePatchPlan is the evidence half of UpdatePlan: the batch
// blocking stages over the patched substrates (State.blockingSides),
// purging, weighting, and the affected-set candidate recomputation.
// After it runs, EvidenceUnchanged reports whether the matching half
// can be skipped by adopting the previous epoch's outputs.
func UpdatePatchPlan() []Stage {
	return []Stage{
		NameBlocking(),
		TokenBlocking(),
		BlockPurging(),
		UpdateBlockIndexing(),
		TokenWeighting(),
		UpdateValueCandidates(),
		UpdateNeighborCandidates(),
	}
}

// UpdateMatchPlan is the matching half of UpdatePlan: the very same
// H1-H4 stages the full plan runs, over the patched evidence.
func UpdateMatchPlan() []Stage {
	return []Stage{
		NameMatching(),
		ValueMatching(),
		RankAggregation(),
		Union(),
		Reciprocity(),
	}
}

// EvidenceUnchanged reports — after the patch plan ran — whether every
// matching input came out equal to the previous epoch's: B_N's inputs
// did not move (no name-attribute change, name-posting change or ID
// shift on either side, so its join is the previous B_N block for
// block), and the candidate arrays are the previous epoch's,
// pointer-identical (the sharing fast paths propagate pointers only
// when content is unchanged). The heuristics are pure functions of
// those inputs, so their outputs can be adopted verbatim.
func (s *State) EvidenceUnchanged() bool {
	u := s.update
	if u == nil || !u.prev.MatchesValid {
		return false
	}
	return u.namesUnchanged &&
		sameCandArray(s.ValueCands1, u.prev.VC1) &&
		sameCandArray(s.ValueCands2, u.prev.VC2) &&
		sameCandArray(s.NeighborCands1, u.prev.NC1) &&
		sameCandArray(s.NeighborCands2, u.prev.NC2)
}

// AdoptPrevMatches installs the previous epoch's matching outputs on
// the state (the EvidenceUnchanged shortcut).
func (s *State) AdoptPrevMatches() {
	p := s.update.prev
	s.H1, s.H2, s.H3 = p.H1, p.H2, p.H3
	s.Matches, s.DiscardedByH4 = p.Matches, p.Discarded
	s.unionDone = true
}

// errNotUpdate guards the update-only stages against plain states.
var errNotUpdate = errors.New("requires an update state (build it with NewUpdateState)")

// patchSides derives the new epoch's two one-sided substrates from
// the previous epoch's, the update case of State.blockingSides: a
// mutated side applies the mutation's token and name key edits, with
// its name postings rebuilt wholesale when the mutation reorders the
// KB's most distinctive attributes (which invalidates every name key at
// once); an unmutated side is the previous substrate as it is.
func (u *updateSide) patchSides(new1, new2 *kb.KB, p Params) [2]*blocking.Prepared {
	u.namesUnchanged = true
	patch := func(prep *blocking.Prepared, old, new *kb.KB, d *kb.Diff) (*blocking.Prepared, blocking.PreparedPatch) {
		if d.Identity {
			return prep, blocking.PreparedPatch{}
		}
		stable := sameTopNameAttrs(old, new, p.NameK)
		var oldAttrs, newAttrs []int32
		if stable {
			oldAttrs, newAttrs = old.TopNameAttributes(p.NameK), new.TopNameAttributes(p.NameK)
		}
		pt := blocking.BuildPreparedPatch(old, new, d, oldAttrs, newAttrs)
		out := prep.ApplyPatch(pt)
		if !stable {
			out = out.RebuildNames(new, p.NameK, p.workers())
		}
		u.namesUnchanged = u.namesUnchanged && stable && pt.Remap == nil && len(pt.Names) == 0
		return out, pt
	}
	u.prep1, u.pt1 = patch(u.prev.Side1.Blocks, u.old1, new1, u.d1)
	u.prep2, u.pt2 = patch(u.prev.Side2.Blocks, u.old2, new2, u.d2)
	return [2]*blocking.Prepared{u.prep1, u.prep2}
}

// UpdateBlockIndexing computes the access path of incremental scoring:
// the set of token keys whose purged contribution may have changed
// (the edited keys, each of which moved a posting, plus every block
// whose purge status flipped when the cutoffs moved) and from it the
// value-affected entity sets of both sides. It reads each changed
// key's two postings in the two epochs' substrates: purging is
// BlockPurging's rule on posting sizes, so a key's block was live in an
// epoch exactly when both postings are non-empty and within that
// epoch's cutoffs.
//
//minoaner:mutator stage writes u.next, the epoch cache under construction; it is published only after the plan completes
func UpdateBlockIndexing() Stage {
	return newStage(StageBlockIndexing, func(ctx context.Context, st *State) error {
		u := st.update
		if u == nil {
			return errNotUpdate
		}
		if st.TokenBlocks == nil || st.PurgeStats.Cutoff1 == 0 {
			// Liveness is read from posting sizes, so the purge must be
			// BlockPurging's cutoff rule (its cutoffs are at least 1).
			return errors.New("requires token blocks purged by cutoffs (run " + StageBlockPurging + " first)")
		}
		u.next.NameBlocks, u.next.TokenBlocks, u.next.Purge = st.NameBlocks, st.TokenBlocks, st.PurgeStats

		changed := make(map[string]bool, len(u.pt1.Tokens)+len(u.pt2.Tokens))
		for _, edits := range [][]blocking.KeyEdit{u.pt1.Tokens, u.pt2.Tokens} {
			for _, e := range edits {
				changed[e.Key] = true
			}
		}
		oldCut, newCut := u.prev.Purge, st.PurgeStats
		if oldCut.Cutoff1 != newCut.Cutoff1 || oldCut.Cutoff2 != newCut.Cutoff2 {
			// The cutoffs moved: an untouched block may have crossed
			// them. A key outside the edit set kept its posting sizes,
			// so its status flipped exactly when one epoch keeps its
			// block and the other epoch's cutoffs purge it.
			flips := func(live []blocking.Block, cut blocking.PurgeResult) {
				for i := range live {
					if b := &live[i]; !survives(b.E1, b.E2, cut) {
						changed[b.Key] = true
					}
				}
			}
			flips(st.TokenBlocks.Blocks, oldCut)
			flips(u.prev.TokenBlocks.Blocks, newCut)
		}

		aff1 := make([]bool, st.KB1.Len())
		aff2 := make([]bool, st.KB2.Len())
		mark := func(aff []bool, members []kb.EntityID, d *kb.Diff, remapped bool) {
			for _, id := range members {
				if remapped {
					if id = d.RemapID(id); id < 0 {
						continue
					}
				}
				aff[id] = true
			}
		}
		old1, old2 := u.prev.Side1.Blocks, u.prev.Side2.Blocks
		for key := range changed {
			if e1, e2 := old1.TokenPosting(key), old2.TokenPosting(key); survives(e1, e2, oldCut) {
				mark(aff1, e1, u.d1, true)
				mark(aff2, e2, u.d2, true)
			}
			if e1, e2 := u.prep1.TokenPosting(key), u.prep2.TokenPosting(key); survives(e1, e2, newCut) {
				mark(aff1, e1, nil, false)
				mark(aff2, e2, nil, false)
			}
		}
		// Entities that appeared this epoch need lists even when none
		// of their keys formed a surviving block.
		for _, e := range u.d1.Inserted {
			aff1[e] = true
		}
		for _, e := range u.d2.Inserted {
			aff2[e] = true
		}
		u.affV1, u.affV2 = aff1, aff2
		u.affectedV1Count, u.affectedV2Count = countTrue(aff1), countTrue(aff2)
		return nil
	})
}

// survives reports whether a key with these two postings forms a block
// that purging at the given cutoffs keeps.
func survives(e1, e2 []kb.EntityID, cut blocking.PurgeResult) bool {
	return len(e1) > 0 && len(e2) > 0 && len(e1) <= cut.Cutoff1 && len(e2) <= cut.Cutoff2
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// sameCandArray reports whether two candidate arrays are the same slice
// (the sharing fast paths propagate pointers, so identity means
// identity of content).
func sameCandArray(a, b [][]Cand) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// UpdateValueCandidates rebuilds the top-K value candidates of the
// affected entities (accumulating over their purged blocks in the
// eager stage's order) and carries everyone else's list over from the
// previous epoch, remapped into the new ID spaces.
//
//minoaner:mutator stage writes u.next, the epoch cache under construction; it is published only after the plan completes
func UpdateValueCandidates() Stage {
	return newStage(StageValueCandidates, func(ctx context.Context, st *State) error {
		u := st.update
		if u == nil {
			return errNotUpdate
		}
		if u.affV1 == nil {
			return errors.New("requires affected sets (run " + StageBlockIndexing + " first)")
		}
		if st.Weights == nil {
			return errors.New("requires token weights (run " + StageTokenWeighting + " first)")
		}
		workers := st.Params.workers()
		bt := st.TokenBlocks

		idx := bt.BuildIndex()

		run := func(side int, byEnt *blocking.IndexSide, aff []bool, prevVC [][]Cand, dSelf, dOther *kb.Diff) ([][]Cand, []bool, error) {
			if countTrue(aff) == 0 && !dSelf.Shifted() && !dOther.Shifted() {
				// Nothing on this side was touched and no IDs moved:
				// the whole array carries over, shared.
				return prevVC, nil, nil
			}
			n := byEnt.Len()
			out := make([][]Cand, n)
			// vcChanged records, exactly, which recomputed lists differ
			// from the previous epoch's — the set the neighbor stage
			// must propagate. Most affected entities turn out unchanged
			// (a re-accumulated sum over identical blocks is identical).
			vcChanged := make([]bool, n)
			accs := make(workerAccumulators, workers)
			other := oppositeSize(bt, side)
			err := parallelFor(ctx, n, workers, func(worker, start, end int) error {
				if err := carryCands(out, prevVC, aff, start, end, dSelf, dOther); err != nil {
					return fmt.Errorf("value candidates of %w", err)
				}
				for e := start; e < end; e++ {
					if !aff[e] {
						continue
					}
					id := kb.EntityID(e)
					acc := accs.of(worker, other, nil)
					acc.addValueEvidence(byEnt.Of(id), bt, side, st.Weights)
					out[e] = acc.topK(st.Params.K)
					acc.reset()
					back := dSelf.BackID(id)
					vcChanged[e] = back < 0 || !sameCandsRemapped(prevVC[back], out[e], dOther)
				}
				return nil
			})
			return out, vcChanged, err
		}

		var err error
		st.ValueCands1, u.vcChanged1, err = run(1, idx.ByE1, u.affV1, u.prev.VC1, u.d1, u.d2)
		if err != nil {
			return err
		}
		st.ValueCands2, u.vcChanged2, err = run(2, idx.ByE2, u.affV2, u.prev.VC2, u.d2, u.d1)
		if err != nil {
			return err
		}
		u.next.VC1, u.next.VC2 = st.ValueCands1, st.ValueCands2
		return nil
	})
}

// sameCandsRemapped reports whether a previous epoch's candidate list,
// translated into the opposite side's new ID space, equals a recomputed
// one exactly (IDs and float bits). A deleted candidate makes them
// differ.
func sameCandsRemapped(prev, cur []Cand, dOther *kb.Diff) bool {
	if len(prev) != len(cur) {
		return false
	}
	for i, c := range prev {
		if (Cand{ID: dOther.RemapID(c.ID), Sim: c.Sim}) != cur[i] {
			return false
		}
	}
	return true
}

// carryLists fills out[start:end], for the entities recomputed does not
// flag, with their previous epoch's lists: shared as they are when the
// IDs the lists name did not shift, otherwise translated by remap —
// which appends one list's translation to the slab — into one backing
// array for the whole range, each list clipped to its own elements
// (empty lists stay nil).
func carryLists[T any](out, prev [][]T, recomputed []bool, start, end int, dSelf *kb.Diff, shifted bool,
	remap func(slab, list []T, e int) ([]T, error)) error {
	total := 0
	for e := start; e < end; e++ {
		if recomputed[e] {
			continue
		}
		list := prev[dSelf.BackID(kb.EntityID(e))]
		if shifted {
			total += len(list)
		} else {
			out[e] = list
		}
	}
	if total == 0 {
		return nil
	}
	slab := make([]T, 0, total)
	for e := start; e < end; e++ {
		if recomputed[e] {
			continue
		}
		list := prev[dSelf.BackID(kb.EntityID(e))]
		if len(list) == 0 {
			continue
		}
		from := len(slab)
		var err error
		if slab, err = remap(slab, list, e); err != nil {
			return err
		}
		out[e] = slab[from:len(slab):len(slab)]
	}
	return nil
}

// carryCands is carryLists for candidate lists, which name the opposite
// side's entities. A deleted candidate would violate the affected-set
// invariant — the entity sharing a block with it must have been
// recomputed — so it is an internal error, not silently dropped.
func carryCands(out, prev [][]Cand, aff []bool, start, end int, dSelf, dOther *kb.Diff) error {
	return carryLists(out, prev, aff, start, end, dSelf, dOther.Shifted(), func(slab, list []Cand, e int) ([]Cand, error) {
		for _, c := range list {
			nid := dOther.RemapID(c.ID)
			if nid < 0 {
				return nil, fmt.Errorf("entity %d: reused candidate %d was deleted (affected-set invariant violated)", e, c.ID)
			}
			slab = append(slab, Cand{ID: nid, Sim: c.Sim})
		}
		return slab, nil
	})
}

// UpdateNeighborCandidates rebuilds the best-neighbor view where edges
// (or the relation ranking) changed, derives which entities' neighbor
// evidence that touches, recomputes those, and carries the rest over.
//
//minoaner:mutator stage writes u.next, the epoch cache under construction; it is published only after the plan completes
func UpdateNeighborCandidates() Stage {
	return newStage(StageNeighborCandidates, func(ctx context.Context, st *State) error {
		u := st.update
		if u == nil {
			return errNotUpdate
		}
		if u.next.VC1 == nil || u.next.VC2 == nil {
			return errors.New("requires value candidates (run " + StageValueCandidates + " first)")
		}
		workers := st.Params.workers()
		view1, changed1, err := updateTops(ctx, u.prev.Side1.Neighbors, u.old1, st.KB1, u.d1, workers)
		if err != nil {
			return err
		}
		view2, changed2, err := updateTops(ctx, u.prev.Side2.Neighbors, u.old2, st.KB2, u.d2, workers)
		if err != nil {
			return err
		}
		u.next.Side1 = &Prepared{Blocks: u.prep1, Neighbors: view1}
		u.next.Side2 = &Prepared{Blocks: u.prep2, Neighbors: view2}

		// Reverse-membership deltas: the entities whose rev lists could
		// differ from last epoch (as URI sets).
		drev1 := revDelta(u.prev.Side1.Neighbors.TopLists(), view1.TopLists(), changed1, u.d1)
		drev2 := revDelta(u.prev.Side2.Neighbors.TopLists(), view2.TopLists(), changed2, u.d2)

		aff1 := neighborAffected(changed1, u.vcChanged1, view1, u.next.VC1, drev2)
		aff2 := neighborAffected(changed2, u.vcChanged2, view2, u.next.VC2, drev1)
		u.affectedN1, u.affectedN2 = countTrue(aff1), countTrue(aff2)

		run := func(aff []bool, self, other *kb.Frozen, vcSelf, prevNC [][]Cand, dSelf, dOther *kb.Diff) ([][]Cand, error) {
			if countTrue(aff) == 0 && !dSelf.Shifted() && !dOther.Shifted() {
				return prevNC, nil
			}
			top, rev := self.TopLists(), other.RevLists()
			var vc side = dense{vc: vcSelf}
			out := make([][]Cand, len(top))
			accs := make(workerAccumulators, workers)
			err := parallelFor(ctx, len(top), workers, func(worker, start, end int) error {
				if err := carryCands(out, prevNC, aff, start, end, dSelf, dOther); err != nil {
					return fmt.Errorf("neighbor candidates of %w", err)
				}
				for e := start; e < end; e++ {
					if !aff[e] {
						continue
					}
					acc := accs.of(worker, len(rev), nil)
					acc.addNeighborEvidence(top[e], vc, rev)
					out[e] = acc.topK(st.Params.K)
					acc.reset()
				}
				return nil
			})
			return out, err
		}

		st.NeighborCands1, err = run(aff1, view1, view2, u.next.VC1, u.prev.NC1, u.d1, u.d2)
		if err != nil {
			return err
		}
		st.NeighborCands2, err = run(aff2, view2, view1, u.next.VC2, u.prev.NC2, u.d2, u.d1)
		if err != nil {
			return err
		}
		u.next.NC1, u.next.NC2 = st.NeighborCands1, st.NeighborCands2
		return nil
	})
}

// updateTops carries a side's neighbor view into the new epoch:
// best-neighbor lists recomputed for entities whose edges changed (or
// for everyone when the global relation ranking moved), remapped or
// shared otherwise. The view names the new KB even when every list is
// shared, so no view of a past epoch's KB is ever carried forward.
func updateTops(ctx context.Context, prev *kb.Frozen, old, new *kb.KB, d *kb.Diff, workers int) (view *kb.Frozen, changed []bool, err error) {
	if d.Identity {
		return prev, nil, nil
	}
	nEnt := new.Len()
	changed = make([]bool, nEnt)
	reranked := !sameRelRanking(old, new)
	if reranked {
		for i := range changed {
			changed[i] = true
		}
	} else {
		for _, e := range d.EdgesChanged {
			changed[e] = true
		}
		for _, e := range d.Inserted {
			changed[e] = true
		}
	}
	n, prevTop := prev.N(), prev.TopLists()
	if !reranked && len(d.EdgesChanged) == 0 && len(d.Inserted) == 0 && !d.Shifted() {
		// No edges moved and no IDs shifted: the lists carry over,
		// shared, re-seated on the new KB.
		return kb.FrozenFromLists(new, n, prevTop, prev.RevLists()), nil, nil
	}
	top := make([][]kb.EntityID, nEnt)
	shifted := d.Shifted()
	err = parallelFor(ctx, nEnt, workers, func(_, start, end int) error {
		for e := start; e < end; e++ {
			if changed[e] {
				top[e] = new.TopNeighbors(kb.EntityID(e), n)
			}
		}
		// Best-neighbor lists name their own side's entities.
		return carryLists(top, prevTop, changed, start, end, d, shifted, func(slab, list []kb.EntityID, e int) ([]kb.EntityID, error) {
			for _, t := range list {
				nt := d.RemapID(t)
				if nt < 0 {
					return nil, fmt.Errorf("neighbor %d of entity %d deleted but edges unflagged", t, e)
				}
				slab = append(slab, nt)
			}
			return slab, nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return kb.FrozenFromLists(new, n, top, nil), changed, nil
}

// revDelta collects the entities (new ID space) whose reverse-neighbor
// membership could differ from the previous epoch: the old and new
// targets of every entity whose top list changed.
func revDelta(prevTop, newTop [][]kb.EntityID, changed []bool, d *kb.Diff) map[kb.EntityID]struct{} {
	if changed == nil {
		return nil
	}
	out := make(map[kb.EntityID]struct{})
	for e, ch := range changed {
		if !ch {
			continue
		}
		for _, t := range newTop[e] {
			out[t] = struct{}{}
		}
		if old := d.BackID(kb.EntityID(e)); old >= 0 {
			for _, t := range prevTop[old] {
				if nt := d.RemapID(t); nt >= 0 {
					out[nt] = struct{}{}
				}
			}
		}
	}
	// Deleted entities leave every reverse list they were in.
	for _, oldID := range d.Deleted {
		for _, t := range prevTop[oldID] {
			if nt := d.RemapID(t); nt >= 0 {
				out[nt] = struct{}{}
			}
		}
	}
	return out
}

// neighborAffected derives which entities' neighbor-candidate lists
// must be recomputed: those whose own top list changed, and those with
// an affected or rev-delta-exposed entity among their best neighbors'
// evidence. A side whose relation ranking moved needs nothing more:
// updateTops flags all its entities, so revDelta holds every old and
// new target of their lists.
func neighborAffected(topChanged, affV []bool,
	view *kb.Frozen, vc [][]Cand, drevOther map[kb.EntityID]struct{}) []bool {
	n, rev := len(vc), view.RevLists()
	aff := make([]bool, n)
	if topChanged != nil {
		copy(aff, topChanged)
	}
	markReferrers := func(nei int) {
		for _, x := range rev[nei] {
			aff[x] = true
		}
	}
	for nei := 0; nei < n; nei++ {
		if affV != nil && affV[nei] {
			markReferrers(nei) // the neighbor's value evidence changed
			continue
		}
		if len(drevOther) > 0 {
			for _, cand := range vc[nei] {
				if _, hit := drevOther[cand.ID]; hit {
					markReferrers(nei) // a proposed target's reverse list changed
					break
				}
			}
		}
	}
	return aff
}

// sameTopNameAttrs reports whether two KB epochs elect the same top
// name attributes, compared as a predicate-name SET (Names membership
// is all that matters downstream; IDs renumber freely and the ranking
// order within the top k is irrelevant).
func sameTopNameAttrs(old, new *kb.KB, k int) bool {
	a, b := old.TopNameAttributes(k), new.TopNameAttributes(k)
	if len(a) != len(b) {
		return false
	}
	names := make(map[string]bool, len(a))
	for _, p := range a {
		names[old.Pred(p)] = true
	}
	for _, p := range b {
		if !names[new.Pred(p)] {
			return false
		}
	}
	return true
}

// sameRelRanking reports whether the relative importance order of the
// relations present in both epochs is unchanged (projected onto the
// common predicate set — relations that appear or vanish exist only on
// edge-changed entities, which are recomputed anyway).
func sameRelRanking(old, new *kb.KB) bool {
	names := func(k *kb.KB) []string {
		stats := k.RelStats()
		out := make([]string, len(stats))
		for i, st := range stats {
			out[i] = k.Pred(st.Pred)
		}
		return out
	}
	a, b := names(old), names(new)
	inBoth := make(map[string]int, len(a))
	for _, s := range a {
		inBoth[s]++
	}
	for _, s := range b {
		inBoth[s] |= 2
	}
	proj := func(xs []string) []string {
		out := xs[:0:0]
		for _, s := range xs {
			if inBoth[s] == 3 {
				out = append(out, s)
			}
		}
		return out
	}
	pa, pb := proj(a), proj(b)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// UpdateCounters reports how many entities the update run recomputed:
// value-affected and neighbor-affected, per side. Valid after the
// candidate stages ran; plain runs report zeros.
func (s *State) UpdateCounters() (affValue1, affValue2, affNeighbor1, affNeighbor2 int) {
	if s.update == nil {
		return 0, 0, 0, 0
	}
	return s.update.affectedV1Count, s.update.affectedV2Count, s.update.affectedN1, s.update.affectedN2
}
