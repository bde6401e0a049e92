package minoaner

import (
	"errors"
	"fmt"

	"minoaner/internal/binio"
	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
)

// Mapped (lazily decoded) snapshots. OpenIndexFile maps the snapshot
// and decodes only what the lock-free read path needs up front, each
// part a fixed number of bulk copies, never a walk over entity records
// or a key-by-key insert:
//
//   - eagerly: the section directory, config (and its inventory), each
//     KB's header and URI section (one slab copy; see internal/kb lazy
//     open), stats, the match lists with their per-entity index (two
//     arrays per side), and the journal — everything
//     Query/Matches/Stats-counters touch. Each of these sections is
//     checksum-verified at open, so Query never serves a damaged URI.
//     The URI index behind Query's lookups builds on the first lookup.
//   - on first demand: the delta substrate (section 8) and the KBs'
//     full tiers (predicates, statistics, entity records; retained
//     sources separately). A small delta reads the substrate and KB1's
//     URIs only; KB1's full tier decodes for the full plan, for streams
//     and for the write side. Each lazy section's checksum verifies on
//     that first access — section 8's outer checksum and its nested
//     substrate's per-section ones at the first delta, the KB entity
//     section's at the first full-tier read — and a damaged lazy
//     section surfaces as an ErrSnapshotCorrupt-wrapped error from the
//     fallible entry points (QueryKB, SaveIndex, mutations, Close),
//     never a crash.
//   - derived, never decoded: the block collections B_N and B_T, which
//     the epoch's first full-pair stream or first mutation builds by
//     joining the substrate with KB2's and purging (see deriveBlocks).
//
// Every decoded structure copies out of the mapping (strings are
// built, not aliased). The lazy tiers are the memos of the opened
// epoch (see derived), so a decode happens once per index, not per
// epoch. The write side (mutations, SaveIndex, Close) first drains the
// mapping — forces every tier it still holds — so copy-on-write epoch
// derivation never starts from a partially decoded epoch, and
// minoanervet's frozen-write rule holds unchanged: nothing ever writes
// through the mapping.

// OpenIndexFile maps a snapshot file and decodes it lazily. The
// returned index answers Query immediately; heavier structures decode
// on first demand (see Index.Close for releasing the mapping).
// LoadIndexFile runs the same decoder and then materializes everything
// up front, so both accept exactly the same snapshots and answer
// queries bit-identically.
func OpenIndexFile(path string) (*Index, error) {
	m, err := binio.OpenMap(path, snapshotMagic, snapshotVersion)
	if err != nil {
		if errors.Is(err, binio.ErrCorrupt) {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		return nil, err
	}
	ix, err := openIndexMap(m)
	if err != nil {
		m.Close()
		return nil, err
	}
	return ix, nil
}

// OpenIndex decodes an in-memory snapshot image lazily. The slice must
// stay valid (and unmodified) until Close or a full materialization.
func OpenIndex(data []byte) (*Index, error) {
	m, err := binio.BytesMap(data, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return openIndexMap(m)
}

// openIndexMap builds the eager tier of a mapped index from the
// section directory, validating everything it decodes now and
// deferring the rest to the lazy accessors. It is the one MSNP
// decoder: LoadIndex is openIndexMap plus a full materialization.
func openIndexMap(m *binio.Map) (*Index, error) {
	e := &epoch{}
	ix := &Index{}
	ix.cur.Store(e)

	var err error
	if e.cfg, err = readConfigSection(m); err != nil {
		return nil, err
	}

	openKB := func(id uint64, name string) (*KB, error) {
		raw, ok := m.Raw(id)
		if !ok {
			return nil, fmt.Errorf("%w: missing %s section", ErrSnapshotCorrupt, name)
		}
		built, err := kb.OpenBinary(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
		}
		return &KB{kb: built}, nil
	}
	// The two URI scans are independent: KB2's runs beside KB1's. KB1's
	// error wins when both fail, so the reported error is deterministic.
	var err2 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.kb2, err2 = openKB(snapKB2, "kb2")
	}()
	e.kb1, err = openKB(snapKB1, "kb1")
	<-done
	if err != nil {
		return nil, err
	}
	if err2 != nil {
		return nil, err2
	}
	if !m.Has(snapPrepared) {
		return nil, fmt.Errorf("%w: missing prepared section", ErrSnapshotCorrupt)
	}

	if err := e.readStatsSection(m); err != nil {
		return nil, err
	}
	if err := e.readMatchesSection(m, e.kb1.Len(), e.kb2.Len()); err != nil {
		return nil, err
	}
	if err := ix.readJournalSection(m); err != nil {
		return nil, err
	}
	e.derive(e.deriveBlocks, func() (*pipeline.Prepared, error) { return e.decodePrepared(m) })

	e.buildLookup()
	ix.mapped = m
	return ix, nil
}

// materializeKB1 forces KB1's full tier — what the full plan and the
// stream base read. A nil check on eager indexes.
func (e *epoch) materializeKB1() error {
	if err := e.kb1.kb.Materialize(); err != nil {
		return fmt.Errorf("%w: kb1: %v", ErrSnapshotCorrupt, err)
	}
	return nil
}

// deriveBlocks builds an opened epoch's B_N and purged B_T as the batch
// pipeline would: the persisted substrate joins KB2's, bounded by it,
// and Block Purging runs under the config's parameters. The result must
// reproduce the stats section — cutoffs, what purging removed, and the
// block and comparison counts — or the snapshot is corrupt.
func (e *epoch) deriveBlocks() (blockPair, error) {
	prep, err := e.d.prep()
	if err != nil {
		return blockPair{}, err
	}
	if err := e.materializeKB2(); err != nil {
		return blockPair{}, err
	}
	side2 := blocking.Prepare(e.kb2.kb, prep.Blocks.NameK(), e.cfg.Workers, prep.Blocks)
	name := blocking.JoinNameBlocks(prep.Blocks, side2)
	raw := blocking.JoinTokenBlocks(prep.Blocks, side2)
	token, purge := blocking.Purge(raw, e.cfg.internal().Purge)
	if purge != e.purge ||
		name.Size() != e.nameBlockCount || name.Comparisons() != e.nameComparisons ||
		token.Size() != e.tokenBlockCount || token.Comparisons() != e.tokenComparisons {
		return blockPair{}, fmt.Errorf("%w: blocks derived from the prepared substrate disagree with the stats section", ErrSnapshotCorrupt)
	}
	return blockPair{name, token}, nil
}

// decodePrepared restores the delta substrate from section 8. The
// neighbor lists after the embedded substrate have no checksums of
// their own, so the section's outer checksum is verified here, on this
// first access; the nested MPS1 frame then decodes on its own. Both
// halves are bulk copies plus one validating pass.
func (e *epoch) decodePrepared(m *binio.Map) (*pipeline.Prepared, error) {
	payload, err := m.Section(snapPrepared)
	if err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	b := binio.NewBytesReader(payload)
	kb1, cfg := e.kb1, e.cfg
	n := b.Int()
	frame := b.Frame()
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	if n != cfg.internal().Params().N {
		return nil, fmt.Errorf("%w: prepared substrate frozen for N=%d, config has N=%d",
			ErrSnapshotCorrupt, n, cfg.N)
	}
	bp, err := blocking.ReadPreparedData(frame)
	if err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	if bp.KBSize() != kb1.Len() {
		return nil, fmt.Errorf("%w: prepared substrate covers %d entities, KB1 has %d",
			ErrSnapshotCorrupt, bp.KBSize(), kb1.Len())
	}
	if bp.NameK() != cfg.NameAttributes {
		return nil, fmt.Errorf("%w: prepared substrate built with NameK=%d, config has %d",
			ErrSnapshotCorrupt, bp.NameK(), cfg.NameAttributes)
	}
	top := readNeighborLists(b, kb1.Len())
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	return &pipeline.Prepared{
		Blocks:    bp,
		Neighbors: kb.FrozenFromLists(kb1.kb, n, top, nil),
	}, nil
}

// readNeighborLists decodes the frozen per-entity neighbor lists of a
// KB of n entities (see writeNeighborLists): every list ascending and
// in range. The lists are subslices of one member array.
func readNeighborLists(b *binio.Reader, n int) [][]kb.EntityID {
	ends := binio.ReadInt32s[int32](b)
	members := binio.ReadInt32s[kb.EntityID](b)
	if b.More() {
		b.Fail("%d bytes after the neighbor lists", b.Len())
	}
	if b.Err() != nil {
		return nil
	}
	if len(ends) != n {
		b.Fail("neighbor lists cover %d entities, KB1 has %d", len(ends), n)
		return nil
	}
	top := make([][]kb.EntityID, n)
	start := int32(0)
	for e, end := range ends {
		if end < start || int(end) > len(members) {
			b.Fail("neighbor list %d ends at %d, outside [%d,%d]", e, end, start, len(members))
			return nil
		}
		prev := kb.EntityID(-1)
		for _, id := range members[start:end] {
			if id <= prev || int(id) >= n {
				b.Fail("neighbor %d out of order or range [0,%d)", id, n)
				return nil
			}
			prev = id
		}
		top[e] = members[start:end:end]
		start = end
	}
	if int(start) != len(members) {
		b.Fail("neighbor lists hold %d of %d members", start, len(members))
		return nil
	}
	return top
}

// drain forces everything the epoch may still read from a snapshot
// mapping: both KBs' tiers and a persisted delta substrate. The write
// side calls it under mu before touching state (mutations, SaveIndex,
// Close). It publishes nothing — the memos fill in place, and every
// clone of the epoch shares them — so after it returns nil no epoch a
// reader may still hold references the mapping.
// A nil check on built and mutated epochs.
func (e *epoch) drain() error {
	for _, side := range []struct {
		name string
		k    *KB
	}{{"kb1", e.kb1}, {"kb2", e.kb2}} {
		if err := side.k.kb.Materialize(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, side.name, err)
		}
		if err := side.k.kb.MaterializeSources(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, side.name, err)
		}
	}
	if e.d.persisted {
		_, err := e.d.prep()
		return err
	}
	return nil
}

// Mapped reports whether the index still holds a snapshot mapping
// (opened via OpenIndexFile/OpenIndex and not yet closed).
func (ix *Index) Mapped() bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.mapped != nil
}

// Close releases the mapping behind an index opened with OpenIndexFile.
// It first drains every lazy structure — so epoch pointers held
// by in-flight readers never touch the mapping afterwards — then
// unmaps. On a decode failure the mapping stays open and the error is
// returned; the index keeps working either way. Close is idempotent
// and a no-op for eagerly loaded or built indexes.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.mapped == nil {
		return nil
	}
	if err := ix.cur.Load().drain(); err != nil {
		return err
	}
	m := ix.mapped
	ix.mapped = nil
	return m.Close()
}
