package minoaner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"minoaner/internal/binio"
	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
)

// Index is a fully resolved, queryable view of a KB pair: the built
// KBs, their block collections, and the complete match set
// M = (H1 ∨ H2 ∨ H3) ∧ H4, organized for query-time access. MinoanER's
// matching needs no iteration, so everything a resolution query needs
// is static within one epoch — an Index is built (or loaded) once and
// answers "who matches entity X?" in constant time, safely from any
// number of goroutines.
//
// An Index is mutable at entity granularity: Upsert and Delete absorb
// changed descriptions under an epoch scheme — readers keep serving
// the current epoch lock-free while the next one is assembled from the
// previous epoch's scoring substrate, then an atomic swap publishes
// it. After any sequence of mutations, Matches/Query/QueryKB are
// bit-identical to a from-scratch BuildIndex over the mutated KBs;
// only the cost differs (the touched neighborhoods, not the whole
// pair). Mutability requires the KBs to retain their source triples
// (the default for every KB this package builds; snapshots persist
// them).
//
// Build one with BuildIndex, persist it with SaveIndex, and reload it
// with LoadIndex; the snapshot round-trips bit-identically, so a
// served index is byte-for-byte the index that was built.
type Index struct {
	// cur is the published epoch; readers Load it once per operation
	// and never block on writers.
	cur atomic.Pointer[epoch]

	// mu serializes the write side: mutations, mutation-cache priming,
	// Compact, and snapshot writes (which need an epoch/journal pair
	// that belongs together).
	mu         sync.Mutex
	mut        *mutator
	journal    []JournalEntry
	journalLen atomic.Int64

	// compactions counts Compact calls over the index's lifetime and
	// persists through snapshots. Compact rewrites write-side state the
	// journal alone cannot reproduce (the stores' term tables), so a
	// replica that observes the primary's count move past its own must
	// resync from a snapshot rather than keep replaying.
	compactions atomic.Uint64

	// streamBaseBuilds counts the stream bases built over the index's
	// lifetime: one per epoch that served a stream (see streamBase).
	streamBaseBuilds atomic.Int64

	// mapped is the snapshot mapping behind an index opened with
	// OpenIndexFile/OpenIndex, nil otherwise; Close releases it.
	// Guarded by mu.
	mapped *binio.Map
}

// epoch is one immutable resolution state. Every field is final once
// the epoch is published; what the state derives on demand lives in d.
type epoch struct {
	seq      uint64
	kb1, kb2 *KB
	cfg      Config

	purge blocking.PurgeResult

	nameBlockCount, tokenBlockCount   int
	nameComparisons, tokenComparisons int64

	h1, h2, h3    []eval.Pair
	matches       []eval.Pair
	discardedByH4 int

	by1, by2 matchIndex // entity -> positions in matches

	// d memoizes what the epoch derives from its KB pair; every clone
	// of one resolution state shares it.
	d *derived
}

// derived holds an epoch's derived artifacts. MinoanER is
// non-iterative, so each is a memo of the epoch's two KBs: derived at
// most once, on first demand, behind a sync.OnceValues, so every later
// read is lock-free. The mutation cache is the exception: priming it
// takes the caller's context and must stay cancellable, so it is set
// under Index.mu instead.
type derived struct {
	// blocks are given at build or mutation; an opened epoch derives
	// them from prep and KB2 (see epoch.deriveBlocks).
	blocks func() (blockPair, error)

	// prep is the frozen left-side substrate of the delta path: decoded
	// from section 8 on an opened epoch (persisted is then true),
	// otherwise the mutation cache's Side1 or frozen from KB1.
	prep      func() (*pipeline.Prepared, error)
	persisted bool

	// stream is the base every stream over the epoch starts from;
	// streamCounted records that Index.streamBaseBuilds counted it.
	stream        func() (*pipeline.StreamBase, error)
	streamCounted atomic.Bool

	// cache is the scoring substrate mutations start from; nil until
	// the first mutation primes it (built and loaded epochs alike pay
	// that one-time candidate recompute there, so read-only indexes
	// never pin the intermediate build artifacts). Mutated epochs
	// always carry one.
	cache atomic.Pointer[pipeline.Cache]
}

// blockPair is an epoch's B_N and purged B_T.
type blockPair struct{ name, token *blocking.Collection }

// derive gives e a fresh memo. blocks yields the block collections;
// prep, when non-nil, decodes a persisted delta substrate.
func (e *epoch) derive(blocks func() (blockPair, error), prep func() (*pipeline.Prepared, error)) {
	d := &derived{blocks: sync.OnceValues(blocks), persisted: prep != nil}
	if prep == nil {
		prep = func() (*pipeline.Prepared, error) {
			if c := d.cache.Load(); c != nil {
				return c.Side1, nil
			}
			return pipeline.PrepareSide(e.kb1.kb, e.cfg.internal().Params()), nil
		}
	}
	d.prep = sync.OnceValues(prep)
	d.stream = sync.OnceValues(e.buildStreamBase)
	e.d = d
}

// givenBlocks is the blocks source of an epoch that has them in hand.
func givenBlocks(name, token *blocking.Collection) func() (blockPair, error) {
	return func() (blockPair, error) { return blockPair{name, token}, nil }
}

// mutator owns the write-side triple stores of a mutable index.
type mutator struct {
	store1, store2 *kb.Store
}

// ErrNotMutable is returned by Upsert/Delete when the index's KBs do
// not retain their source triples — a snapshot from before source
// retention, or KBs built with retention disabled. Rebuild the index
// (or its snapshot) from sources to mutate it.
var ErrNotMutable = errors.New("minoaner: index is not mutable (its KBs lack retained source triples; rebuild from sources)")

// ErrJournalTruncated is returned by JournalSince and Replay when the
// journal no longer connects the caller's cursor to the current epoch
// — typically because Compact dropped the entries in between — or
// when an upsert entry handed to Replay carries no delta payload.
// Replicas recover by resyncing from a full snapshot.
var ErrJournalTruncated = errors.New("minoaner: journal truncated before the requested epoch (resync from a snapshot)")

// BuildIndex resolves the KB pair once and assembles the queryable
// index.
func BuildIndex(kb1, kb2 *KB, cfg Config) (*Index, error) {
	return BuildIndexContext(context.Background(), kb1, kb2, cfg)
}

// BuildIndexContext is BuildIndex under a context, with optional
// progress reporting (WithProgress). It runs the same staged pipeline
// as ResolveContext and retains the artifacts queries need: the block
// collections, the per-heuristic contributions, and the final match
// set.
func BuildIndexContext(ctx context.Context, kb1, kb2 *KB, cfg Config, opts ...ResolveOption) (*Index, error) {
	var o resolveOptions
	for _, opt := range opts {
		opt(&o)
	}
	icfg := cfg.internal()
	if err := icfg.Validate(); err != nil {
		return nil, err
	}
	st := pipeline.NewState(kb1.kb, kb2.kb, icfg.Params())
	eng := pipeline.Engine{Plan: core.PlanFor(icfg), Progress: o.pipelineProgress()}
	if _, err := eng.Run(ctx, st); err != nil {
		return nil, err
	}
	ep := &epoch{
		kb1:              kb1,
		kb2:              kb2,
		cfg:              cfg,
		purge:            st.PurgeStats,
		nameBlockCount:   st.NameBlockCount,
		tokenBlockCount:  st.TokenBlockCount,
		nameComparisons:  st.NameComparisons,
		tokenComparisons: st.TokenComparisons,
		h1:               st.H1,
		h2:               st.H2,
		h3:               st.H3,
		matches:          st.Matches,
		discardedByH4:    st.DiscardedByH4,
	}
	ep.derive(givenBlocks(st.NameBlocks, st.TokenBlocks), nil)
	ep.buildLookup()
	ix := &Index{}
	ix.cur.Store(ep)
	return ix, nil
}

// buildLookup derives the per-entity match positions from the match
// list.
func (e *epoch) buildLookup() {
	e.by1 = indexMatches(e.kb1.Len(), e.matches, func(p eval.Pair) kb.EntityID { return p.E1 })
	e.by2 = indexMatches(e.kb2.Len(), e.matches, func(p eval.Pair) kb.EntityID { return p.E2 })
}

// matchIndex lists, per entity of one KB, its positions in the match
// list, ascending: entity e's are pos[off[e]:off[e+1]].
type matchIndex struct {
	off, pos []int32
}

// indexMatches builds the matchIndex of a KB of n entities, whose
// entity in each pair side picks, with a counting sort.
func indexMatches(n int, matches []eval.Pair, side func(eval.Pair) kb.EntityID) matchIndex {
	m := matchIndex{off: make([]int32, n+1), pos: make([]int32, len(matches))}
	for _, p := range matches {
		m.off[side(p)+1]++
	}
	for e := 0; e < n; e++ {
		m.off[e+1] += m.off[e]
	}
	// off[e] serves as e's fill cursor and ends where off[e+1] began;
	// shifting the array one up restores the starts.
	for i, p := range matches {
		e := side(p)
		m.pos[m.off[e]] = int32(i)
		m.off[e]++
	}
	copy(m.off[1:], m.off[:n])
	m.off[0] = 0
	return m
}

// of returns entity e's match positions.
func (m *matchIndex) of(e kb.EntityID) []int32 { return m.pos[m.off[e]:m.off[e+1]] }

// KB1 returns the first indexed KB (of the current epoch).
func (ix *Index) KB1() *KB { return ix.cur.Load().kb1 }

// KB2 returns the second indexed KB (of the current epoch).
func (ix *Index) KB2() *KB { return ix.cur.Load().kb2 }

// Config returns the configuration the index was built under.
func (ix *Index) Config() Config { return ix.cur.Load().cfg }

// Epoch returns the index's epoch number: 0 for a fresh build, +1 per
// absorbed mutation, persisted through snapshots.
func (ix *Index) Epoch() uint64 { return ix.cur.Load().seq }

// Mutable reports whether the index accepts Upsert/Delete: both KBs
// must retain their source triples.
func (ix *Index) Mutable() bool {
	e := ix.cur.Load()
	return e.kb1.kb.HasSources() && e.kb2.kb.HasSources()
}

// Matches returns the full match set as URI pairs, in canonical order.
func (ix *Index) Matches() []Match {
	e := ix.cur.Load()
	out := make([]Match, len(e.matches))
	for i, p := range e.matches {
		out[i] = Match{URI1: e.kb1.kb.URI(p.E1), URI2: e.kb2.kb.URI(p.E2)}
	}
	return out
}

// NumMatches returns the size of the match set — unlike Stats, it
// never forces a mapped index's lazy tiers (the match lists decode at
// open).
func (ix *Index) NumMatches() int { return len(ix.cur.Load().matches) }

// IndexStats summarizes an index for monitoring (the /stats payload of
// the serve endpoint).
type IndexStats struct {
	KB1, KB2                          KBStats
	Epoch                             uint64
	JournalLength                     int
	Matches                           int
	ByName, ByValue, ByRank           int
	DiscardedByReciprocity            int
	NameBlocks, TokenBlocks           int
	NameComparisons, TokenComparisons int64
	PurgedBlocks                      int
}

// Stats reports the index's summary statistics.
func (ix *Index) Stats() IndexStats {
	return ix.statsOf(ix.cur.Load())
}

// statsOf derives the statistics of one epoch (serve handlers pass
// the epoch they answer from, so a response never mixes two).
func (ix *Index) statsOf(e *epoch) IndexStats {
	return IndexStats{
		KB1:                    e.kb1.Stats(),
		KB2:                    e.kb2.Stats(),
		Epoch:                  e.seq,
		JournalLength:          int(ix.journalLen.Load()),
		Matches:                len(e.matches),
		ByName:                 len(e.h1),
		ByValue:                len(e.h2),
		ByRank:                 len(e.h3),
		DiscardedByReciprocity: e.discardedByH4,
		NameBlocks:             e.nameBlockCount,
		TokenBlocks:            e.tokenBlockCount,
		NameComparisons:        e.nameComparisons,
		TokenComparisons:       e.tokenComparisons,
		PurgedBlocks:           e.purge.RemovedBlocks,
	}
}

// QueryResult answers one queried URI: where the entity was found and
// the matches it participates in — the heuristic composition
// (H1 ∨ H2 ∨ H3) ∧ H4 restricted to that entity.
type QueryResult struct {
	// URI is the queried entity, echoed back.
	URI string
	// In1 and In2 report whether the URI names an entity of the first /
	// second KB. Both false means the URI is unknown to the index.
	In1, In2 bool
	// Matches lists the resolved pairs involving the entity, in
	// canonical order.
	Matches []Match
}

// Query resolves entity URIs against the index. Each URI is looked up
// in both KBs; unknown URIs yield a result with In1 == In2 == false and
// no matches. Query is read-only, lock-free, and safe for concurrent
// use — including concurrently with mutations, which it observes as an
// atomic epoch switch (one Query call always answers from a single
// epoch).
func (ix *Index) Query(entityURIs ...string) []QueryResult {
	e := ix.cur.Load()
	out := make([]QueryResult, len(entityURIs))
	for i, uri := range entityURIs {
		res := QueryResult{URI: uri}
		var positions []int32
		if e1, ok := e.kb1.kb.Lookup(uri); ok {
			res.In1 = true
			positions = append(positions, e.by1.of(e1)...)
		}
		if e2, ok := e.kb2.kb.Lookup(uri); ok {
			res.In2 = true
			positions = appendNewPositions(positions, e.by2.of(e2))
		}
		for _, pos := range positions {
			p := e.matches[pos]
			res.Matches = append(res.Matches, Match{URI1: e.kb1.kb.URI(p.E1), URI2: e.kb2.kb.URI(p.E2)})
		}
		out[i] = res
	}
	return out
}

// appendNewPositions appends the positions of b not already present in
// a (both lists are short: an entity participates in few matches).
func appendNewPositions(a, b []int32) []int32 {
	for _, pos := range b {
		dup := false
		for _, have := range a {
			if have == pos {
				dup = true
				break
			}
		}
		if !dup {
			a = append(a, pos)
		}
	}
	return a
}

// Prepare derives the current epoch's delta substrate now instead of on
// the first QueryKB that needs it (one pass over KB1, or one decode of
// a persisted substrate). It is never required; a failure surfaces
// from the next QueryKB.
func (ix *Index) Prepare() { _, _ = ix.cur.Load().d.prep() }

// QueryKB resolves a delta KB — one entity or a small batch of new
// descriptions — against the index's first KB. A delta smaller than
// KB1 runs over the epoch's delta substrate — KB1 frozen into a
// one-sided token/name inverted index and a sealed neighbor view —
// joining it with the delta's own substrate, bounded by it, so the query
// costs the joined blocks' members and the entities the heuristics touch,
// never |KB1|. The substrate is derived once per epoch, on the first
// such query (or decoded from the snapshot that persisted it). On a
// mapped index, that substrate and KB1's URIs are all this path reads:
// KB1's full tier stays undecoded. A larger delta runs the full plan,
// which decodes KB1's full tier and re-blocks the whole pair (see
// QueryKBFull). Both paths produce identical results. A QueryKB call answers from one epoch; concurrent
// mutations never tear it.
//
// Query, by contrast, is a constant-time lookup; route traffic about
// already-indexed entities there and reserve QueryKB (and the serve
// layer's /delta) for genuinely new descriptions. To resolve raw
// N-Triples, parse them with LoadKB or LoadKBLenient first.
func (ix *Index) QueryKB(ctx context.Context, delta *KB, opts ...ResolveOption) (*Result, error) {
	e := ix.cur.Load()
	if delta.Len() >= e.kb1.Len() {
		return e.queryFull(ctx, delta, opts...)
	}
	prep, err := e.d.prep()
	if err != nil {
		return nil, err
	}
	return e.queryPrepared(ctx, prep, delta, opts...)
}

// QueryKBFull resolves the delta with the full plan, re-blocking the
// entire pair. It exists for benchmarking and for equivalence checks
// against the substrate path; QueryKB is the right entry point for
// serving.
func (ix *Index) QueryKBFull(ctx context.Context, delta *KB, opts ...ResolveOption) (*Result, error) {
	return ix.cur.Load().queryFull(ctx, delta, opts...)
}

// queryFull runs the full plan over KB1's full tier, decoding it first
// on a mapped index.
func (e *epoch) queryFull(ctx context.Context, delta *KB, opts ...ResolveOption) (*Result, error) {
	if err := e.materializeKB1(); err != nil {
		return nil, err
	}
	return ResolveContext(ctx, e.kb1, delta, e.cfg, opts...)
}

// queryPrepared runs the delta plan against the epoch's frozen
// substrate.
func (e *epoch) queryPrepared(ctx context.Context, prep *pipeline.Prepared, delta *KB, opts ...ResolveOption) (*Result, error) {
	var o resolveOptions
	for _, opt := range opts {
		opt(&o)
	}
	res, err := core.RunDelta(ctx, prep, delta.kb, e.cfg.internal(), o.pipelineProgress())
	if err != nil {
		return nil, err
	}
	return newResult(res, e.kb1.kb, delta.kb), nil
}

// Upsert absorbs a delta KB into the indexed pair: every entity of the
// delta replaces (or adds) its description on the given side (1 or 2),
// at triple granularity — links from other entities to replaced ones
// reclassify exactly as a from-scratch rebuild would. The call blocks
// until the new epoch is published; concurrent readers keep answering
// from the previous epoch until then. After it returns,
// Matches/Query/QueryKB are bit-identical to BuildIndex over the
// mutated KBs. Upserting descriptions identical to the indexed ones is
// a no-op (no epoch bump). The delta must retain sources (every KB
// this package parses does).
func (ix *Index) Upsert(ctx context.Context, side int, delta *KB) error {
	if delta == nil || delta.Len() == 0 {
		return errors.New("minoaner: Upsert requires a non-empty delta KB")
	}
	_, err := ix.applyMutation(ctx, side, delta, nil)
	return err
}

// Delete removes entities (by subject URI) from the given side: all
// their triples vanish, and links from surviving entities degrade to
// dangling values exactly as a from-scratch rebuild would. Deleting
// URIs the side does not contain is a no-op.
func (ix *Index) Delete(ctx context.Context, side int, uris ...string) error {
	if len(uris) == 0 {
		return errors.New("minoaner: Delete requires at least one URI")
	}
	_, err := ix.applyMutation(ctx, side, nil, uris)
	return err
}

// mutationOutcome reports what one applyMutation call published — the
// serve handlers answer from it rather than re-reading shared state,
// so a response never describes a concurrent caller's mutation.
type mutationOutcome struct {
	epoch   uint64
	matches int
	noop    bool
}

func (ix *Index) applyMutation(ctx context.Context, side int, delta *KB, uris []string) (mutationOutcome, error) {
	if side != 1 && side != 2 {
		return mutationOutcome{}, fmt.Errorf("minoaner: side must be 1 or 2, got %d", side)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()

	// Mutations derive the next epoch from the previous one's concrete
	// structures; a mapped epoch decodes fully first (copy-on-write
	// never touches the mapping).
	e := ix.cur.Load()
	if err := e.drain(); err != nil {
		return mutationOutcome{}, err
	}
	if err := ix.ensureMutator(ctx, e); err != nil {
		return mutationOutcome{}, err
	}

	store, oldSide := ix.mut.store1, e.kb1
	if side == 2 {
		store, oldSide = ix.mut.store2, e.kb2
	}
	var deltaKB *kb.KB
	if delta != nil {
		deltaKB = delta.kb
	}
	changed, revert, err := store.Apply(deltaKB, uris)
	if err != nil {
		return mutationOutcome{}, fmt.Errorf("minoaner: applying mutation: %w", err)
	}
	if !changed {
		return mutationOutcome{epoch: e.seq, matches: len(e.matches), noop: true}, nil
	}
	newSide := &KB{kb: store.Assemble(oldSide.kb)}

	old1, old2 := e.kb1, e.kb2
	new1, new2 := old1, old2
	if side == 1 {
		new1 = newSide
	} else {
		new2 = newSide
	}
	res, nextCache, err := core.RunUpdate(ctx, e.d.cache.Load(), old1.kb, old2.kb, new1.kb, new2.kb, e.cfg.internal(), nil)
	if err != nil {
		revert()
		return mutationOutcome{}, fmt.Errorf("minoaner: absorbing mutation: %w", err)
	}

	ne := &epoch{
		seq:              e.seq + 1,
		kb1:              new1,
		kb2:              new2,
		cfg:              e.cfg,
		purge:            res.Purge,
		nameBlockCount:   res.NameBlockCount,
		tokenBlockCount:  res.TokenBlockCount,
		nameComparisons:  res.NameComparisons,
		tokenComparisons: res.TokenComparisons,
		h1:               res.H1,
		h2:               res.H2,
		h3:               res.H3,
		matches:          res.Matches,
		discardedByH4:    res.DiscardedByH4,
	}
	ne.derive(givenBlocks(nextCache.NameBlocks, nextCache.TokenBlocks), nil)
	ne.d.cache.Store(nextCache)
	ne.buildLookup()

	entry := JournalEntry{Seq: ne.seq, Side: side, Op: JournalUpsert}
	if delta != nil {
		entry.Subjects = delta.URIs()
		entry.Triples = delta.kb.NumTriples()
		entry.Delta = deltaLines(delta)
	} else {
		entry.Op = JournalDelete
		entry.Subjects = append([]string(nil), uris...)
	}
	// Publish the epoch before the journal counter: a concurrent
	// Stats may transiently see the journal lag the epoch, never lead
	// it.
	ix.journal = append(ix.journal, entry)
	ix.cur.Store(ne)
	ix.journalLen.Store(int64(len(ix.journal)))
	return mutationOutcome{epoch: ne.seq, matches: len(ne.matches)}, nil
}

// ensureMutator lazily builds the write side: the triple stores and
// the epoch's mutation cache (recomputing candidate evidence when the
// epoch was loaded rather than built). Called under mu on a drained
// epoch.
func (ix *Index) ensureMutator(ctx context.Context, e *epoch) error {
	if ix.mut == nil {
		s1, err := kb.NewStore(e.kb1.kb)
		if err != nil {
			return fmt.Errorf("%w: first KB: %w", ErrNotMutable, err)
		}
		s2, err := kb.NewStore(e.kb2.kb)
		if err != nil {
			return fmt.Errorf("%w: second KB: %w", ErrNotMutable, err)
		}
		workers := e.cfg.internal().Params().Workers
		s1.SetWorkers(workers)
		s2.SetWorkers(workers)
		ix.mut = &mutator{store1: s1, store2: s2}
	}
	if e.d.cache.Load() == nil {
		b, err := e.d.blocks()
		if err != nil {
			return err
		}
		cache, err := core.PrimeCache(ctx, e.kb1.kb, e.kb2.kb, b.name, b.token, e.purge, e.cfg.internal())
		if err != nil {
			return fmt.Errorf("minoaner: priming mutable substrate: %w", err)
		}
		cache.SetMatches(e.h1, e.h2, e.h3, e.matches, e.discardedByH4)
		e.d.cache.Store(cache)
	}
	return nil
}

// Compact trims the index's write-side bookkeeping: the mutation
// journal is truncated (the epoch number survives) and the triple
// stores drop terms orphaned by deletions. It publishes the current
// epoch again — same number, same matches — with its KBs seated on the
// compacted term tables, so a snapshot taken after Compact (SaveIndex,
// /snapshot, a replica's bootstrap) carries the compacted tables, the
// very state this index continues from. Reads are unaffected; call it
// after large mutation bursts, before SaveIndex, or on a schedule.
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.compactions.Add(1)
	ix.journal = nil
	ix.journalLen.Store(0)
	ne := *ix.cur.Load()
	if ix.mut != nil {
		// A store that compacted its term table hands back the epoch's KB
		// seated on it; a snapshot of the old one would ship the orphans.
		if k := ix.mut.store1.Compact(); k != nil {
			ne.kb1 = &KB{kb: k}
		}
		if k := ix.mut.store2.Compact(); k != nil {
			ne.kb2 = &KB{kb: k}
		}
	}
	if c := ne.d.cache.Load(); c != nil {
		// The cache, its views re-seated on the epoch's KBs, seeds a
		// fresh memo, so the delta substrate is its Side1.
		cache := *c
		cache.Side1 = compactSide(c.Side1, ne.kb1.kb)
		cache.Side2 = compactSide(c.Side2, ne.kb2.kb)
		ne.derive(givenBlocks(cache.NameBlocks, cache.TokenBlocks), nil)
		ne.d.cache.Store(&cache)
	}
	ix.cur.Store(&ne)
}

// compactSide re-seats the neighbor view of one side of a mutation
// cache, lists shared, on k: the side's KB after Compact.
func compactSide(p *pipeline.Prepared, k *kb.KB) *pipeline.Prepared {
	f := p.Neighbors
	return &pipeline.Prepared{Blocks: p.Blocks, Neighbors: kb.FrozenFromLists(k, f.N(), f.TopLists(), f.RevLists())}
}

// JournalEntry records one absorbed mutation. The journal is the
// replayable provenance of a mutated index: it persists in snapshots
// (section 9), is truncated by Compact, and feeding a primary's
// entries to Index.Replay reproduces the primary's state exactly.
type JournalEntry struct {
	// Seq is the epoch the mutation produced.
	Seq uint64
	// Op is JournalUpsert or JournalDelete.
	Op byte
	// Side is the mutated side (1 or 2).
	Side int
	// Subjects lists the upserted entity URIs / deleted URIs.
	Subjects []string
	// Triples counts the delta's triples (0 for deletes).
	Triples int
	// Delta holds an upsert's source triples as canonical N-Triples
	// lines, one per retained triple in interned order — the payload
	// that makes the entry replayable on another index. Nil for
	// deletes.
	Delta []string
}

// Journal operation codes.
const (
	JournalUpsert byte = 1
	JournalDelete byte = 2
)

// Journal returns a copy of the mutation journal accumulated since the
// last Compact (or snapshot load).
func (ix *Index) Journal() []JournalEntry {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return append([]JournalEntry(nil), ix.journal...)
}

// Compactions returns how many times Compact has run over the index's
// lifetime (persisted through snapshots). Replication compares the
// primary's count against the replica's: a difference means the
// primary rewrote journal-invisible state and the replica must resync.
func (ix *Index) Compactions() uint64 { return ix.compactions.Load() }

// JournalTail is JournalSince's answer: the entries a caller must
// replay to catch up, plus the epoch and compaction count they lead
// to, captured atomically with the entries.
type JournalTail struct {
	Entries     []JournalEntry
	Epoch       uint64
	Compactions uint64
}

// JournalSince returns the journal entries with Seq > since — the tail
// an index at epoch `since` must Replay to reach this index's state.
// An up-to-date cursor (since >= current epoch) yields no entries. It
// fails with ErrJournalTruncated when Compact has dropped entries
// after `since`: the cursor predates the journal's coverage, and only
// a full snapshot resync can bridge the gap.
func (ix *Index) JournalSince(since uint64) (JournalTail, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e := ix.cur.Load()
	tail := JournalTail{Epoch: e.seq, Compactions: ix.compactions.Load()}
	base := e.seq - uint64(len(ix.journal))
	if since < base {
		return tail, fmt.Errorf("%w: journal covers epochs (%d, %d], cursor at %d", ErrJournalTruncated, base, e.seq, since)
	}
	if since >= e.seq {
		return tail, nil
	}
	tail.Entries = append([]JournalEntry(nil), ix.journal[since-base:]...)
	return tail, nil
}

// Replay applies journal entries taken from another index — typically
// a replication primary's Journal or JournalSince tail — in order.
// Entries at or below the current epoch are skipped, so overlapping
// tails are safe. The result is rebuild-equivalent and byte-exact:
// after replaying the primary's journal, this index's matches,
// statistics, and saved snapshot are bit-identical to the primary's at
// the same epoch. Replay is a write-side call: serialize it with other
// mutations (a replica has exactly one writer, its tailing loop).
//
// It returns the number of entries applied and fails with
// ErrJournalTruncated when the entries do not connect to the current
// epoch, or when an upsert entry carries no delta payload (no index
// journals one; such an entry is invalid input); both mean the caller
// must resync from a snapshot.
func (ix *Index) Replay(ctx context.Context, entries []JournalEntry) (int, error) {
	applied := 0
	for i := range entries {
		ok, err := ix.replayOne(ctx, &entries[i])
		if err != nil {
			return applied, fmt.Errorf("minoaner: replaying journal entry for epoch %d: %w", entries[i].Seq, err)
		}
		if ok {
			applied++
		}
	}
	return applied, nil
}

// replayOne applies one journal entry, verifying it produces exactly
// the epoch it recorded.
func (ix *Index) replayOne(ctx context.Context, je *JournalEntry) (bool, error) {
	cur := ix.Epoch()
	if je.Seq <= cur {
		return false, nil // already absorbed: an overlapping tail
	}
	if je.Seq != cur+1 {
		return false, fmt.Errorf("%w: entry jumps from epoch %d to %d", ErrJournalTruncated, cur, je.Seq)
	}
	var out mutationOutcome
	var err error
	switch je.Op {
	case JournalUpsert:
		if len(je.Delta) == 0 {
			return false, fmt.Errorf("%w: upsert entry carries no delta payload", ErrJournalTruncated)
		}
		delta, perr := LoadKB("replay", strings.NewReader(strings.Join(je.Delta, "\n")))
		if perr != nil {
			return false, fmt.Errorf("parsing delta payload: %w", perr)
		}
		out, err = ix.applyMutation(ctx, je.Side, delta, nil)
	case JournalDelete:
		out, err = ix.applyMutation(ctx, je.Side, nil, je.Subjects)
	default:
		return false, fmt.Errorf("invalid journal op %d", je.Op)
	}
	if err != nil {
		return false, err
	}
	if out.noop || out.epoch != je.Seq {
		return false, fmt.Errorf("replay diverged: entry for epoch %d produced epoch %d (noop=%v)", je.Seq, out.epoch, out.noop)
	}
	return true, nil
}

// deltaLines renders an upsert delta's retained source triples as
// canonical N-Triples lines. The rendering round-trips exactly (write,
// parse, write is the identity), so replaying the lines rebuilds a
// delta KB with bit-identical sources.
func deltaLines(delta *KB) []string {
	triples := delta.kb.SourceTriples()
	out := make([]string, len(triples))
	for i, t := range triples {
		out[i] = t.String()
	}
	return out
}

// replaceState adopts another index's entire state — epoch, journal,
// and compaction count — atomically for readers. It backs a replica's
// full resync: src is a freshly loaded snapshot that has never been
// shared, and ownership of its state transfers to ix. The stale write
// side is dropped; the next mutation rebuilds it from the adopted
// epoch.
func (ix *Index) replaceState(src *Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.mut = nil
	ix.journal = src.Journal()
	ix.compactions.Store(src.compactions.Load())
	ix.cur.Store(src.cur.Load())
	ix.journalLen.Store(int64(len(ix.journal)))
	// Ownership of a mapped source's mapping transfers too, so the
	// adopting index's Close releases it. Any mapping ix held before is
	// only reachable through old epoch pointers now; its finalizer
	// reclaims it once those drain.
	ix.mapped = src.mapped
	src.mapped = nil
}

// SaveIndexFile writes the index snapshot to a file atomically: the
// bytes go to a temporary file in the same directory, are synced, and
// replace the target via rename — a failed save (or a crash mid-write)
// leaves any previous snapshot at the path intact.
func SaveIndexFile(path string, ix *Index) error {
	return writeFileAtomic(path, func(w io.Writer) error { return SaveIndex(w, ix) })
}

// writeFileAtomic writes a file via temp file + fsync + rename, so the
// path either keeps its old content or holds the complete new bytes —
// never a truncated mix.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		// CreateTemp reads an empty dir as $TMPDIR, which may be another
		// filesystem the rename below cannot cross.
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// pipelineProgress adapts the public progress callback to the pipeline
// layer.
func (o *resolveOptions) pipelineProgress() pipeline.Progress {
	if o.progress == nil {
		return nil
	}
	return func(ev pipeline.ProgressEvent) {
		o.progress(StageProgress{
			Stage:  ev.Stage,
			Index:  ev.Index,
			Total:  ev.Total,
			Done:   ev.Done,
			Timing: stageTiming(ev.Stat),
		})
	}
}
