package minoaner

import (
	"errors"
	"fmt"
	"sync"

	"minoaner/internal/binio"
	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
)

// Mapped (lazily decoded) snapshots. OpenIndexFile maps the snapshot
// and decodes only what the lock-free read path needs up front:
//
//   - eagerly: the section directory, config (and its inventory), the
//     KBs' URI tiers, stats, the match lists, and the journal —
//     everything Query/Matches/Stats-counters touch.
//   - on first demand: the KBs' full tiers (internal/kb lazy open),
//     the block collections, and the prepared substrate.
//     Section checksums verify on that first access; a corrupted lazy
//     section surfaces as an ErrSnapshotCorrupt-wrapped error from the
//     fallible entry points (QueryKB, SaveIndex, mutations, Close),
//     never a crash.
//
// Every decoded structure copies out of the mapping (strings are
// built, not aliased). The write side (mutations, Prepare, SaveIndex,
// Close) first forces every lazy tier via materializeLocked
// and publishes a fully concrete epoch, so the existing copy-on-write
// epoch machinery — and minoanervet's frozen-write rule — hold
// unchanged: nothing ever writes through the mapping.

// lazyParts is the undecoded remainder of a mapped snapshot. All
// epochs cloned from a mapped open share the one instance, so a
// decode happens once per index, not per epoch, and Close can prove
// every published epoch is off the mapping by draining this instance.
type lazyParts struct {
	m *binio.Map

	// hasPrepared records whether the snapshot carries section 8; it
	// makes Prepared() answer correctly before the substrate is decoded.
	hasPrepared bool

	blocksOnce  sync.Once
	nameBlocks  *blocking.Collection
	tokenBlocks *blocking.Collection
	blocksErr   error

	prepOnce sync.Once
	prep     *pipeline.Prepared
	prepErr  error
}

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
	e := &epoch{stream: &streamCell{}}
	ix := &Index{}
	ix.cur.Store(e)

	b, err := m.Reader(snapConfig)
	if err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrSnapshotCorrupt, err)
	}
	e.cfg = readConfig(b)
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrSnapshotCorrupt, err)
	}
	if err := m.VerifyInventory(b); err != nil {
		return nil, fmt.Errorf("%w: config inventory: %v", ErrSnapshotCorrupt, err)
	}

	openKB := func(id uint64, name string) (*KB, error) {
		raw, ok := m.Raw(id)
		if !ok {
			return nil, fmt.Errorf("%w: missing %s section", ErrSnapshotCorrupt, name)
		}
		if !kb.LazyCapable(raw) {
			// A pre-sectioned (v1) KB image carries no inner checksums
			// and decodes eagerly; verify the snapshot section's own
			// checksum first.
			raw, err = m.Section(id)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
			}
		}
		built, err := kb.OpenBinary(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
		}
		return &KB{kb: built}, nil
	}
	if e.kb1, err = openKB(snapKB1, "kb1"); err != nil {
		return nil, err
	}
	if e.kb2, err = openKB(snapKB2, "kb2"); err != nil {
		return nil, err
	}
	for _, s := range []struct {
		id   uint64
		name string
	}{{snapNameBlocks, "name-blocks"}, {snapTokenBlocks, "token-blocks"}} {
		if !m.Has(s.id) {
			return nil, fmt.Errorf("%w: missing %s section", ErrSnapshotCorrupt, s.name)
		}
	}

	if b, err = m.Reader(snapStats); err != nil {
		return nil, fmt.Errorf("%w: stats: %v", ErrSnapshotCorrupt, err)
	}
	e.purge.Cutoff1 = b.Int()
	e.purge.Cutoff2 = b.Int()
	e.purge.RemovedBlocks = b.Int()
	e.purge.RemovedComparisons = int64(b.Uvarint())
	e.nameBlockCount = b.Int()
	e.tokenBlockCount = b.Int()
	e.nameComparisons = int64(b.Uvarint())
	e.tokenComparisons = int64(b.Uvarint())
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: stats: %v", ErrSnapshotCorrupt, err)
	}

	if b, err = m.Reader(snapMatches); err != nil {
		return nil, fmt.Errorf("%w: matches: %v", ErrSnapshotCorrupt, err)
	}
	n1, n2 := e.kb1.Len(), e.kb2.Len()
	e.h1 = readPairs(b, n1, n2)
	e.h2 = readPairs(b, n1, n2)
	e.h3 = readPairs(b, n1, n2)
	e.matches = readPairs(b, n1, n2)
	e.discardedByH4 = b.Int()
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: matches: %v", ErrSnapshotCorrupt, err)
	}

	if m.Has(snapJournal) {
		jb, err := m.Reader(snapJournal)
		if err != nil {
			return nil, fmt.Errorf("%w: journal: %v", ErrSnapshotCorrupt, err)
		}
		if err := readJournalSection(jb, ix); err != nil {
			return nil, err
		}
	}
	e.lazy = &lazyParts{m: m, hasPrepared: m.Has(snapPrepared)}

	e.buildLookup()
	ix.mapped = m
	return ix, nil
}

// hasPrepared reports whether the epoch has (or can decode) the
// prepared substrate.
func (e *epoch) hasPrepared() bool {
	return e.prep != nil || (e.lazy != nil && e.lazy.hasPrepared)
}

// materializeKB1 forces KB1's full tier — what every delta-resolution
// path scores against. A nil check on eager indexes.
func (e *epoch) materializeKB1() error {
	if err := e.kb1.kb.Materialize(); err != nil {
		return fmt.Errorf("%w: kb1: %v", ErrSnapshotCorrupt, err)
	}
	return nil
}

// blocks returns the epoch's block collections, decoding them from the
// mapping on first demand.
func (e *epoch) blocks() (name, tok *blocking.Collection, err error) {
	if e.nameBlocks != nil || e.lazy == nil {
		return e.nameBlocks, e.tokenBlocks, nil
	}
	lz := e.lazy
	lz.blocksOnce.Do(func() {
		lz.nameBlocks, lz.blocksErr = e.decodeBlocks(snapNameBlocks, "name-blocks")
		if lz.blocksErr == nil {
			lz.tokenBlocks, lz.blocksErr = e.decodeBlocks(snapTokenBlocks, "token-blocks")
		}
	})
	return lz.nameBlocks, lz.tokenBlocks, lz.blocksErr
}

func (e *epoch) decodeBlocks(id uint64, name string) (*blocking.Collection, error) {
	// The embedded collection format checksums its own sections, so the
	// raw payload decodes without an extra outer verification pass.
	raw, ok := e.lazy.m.Raw(id)
	if !ok {
		return nil, fmt.Errorf("%w: missing %s section", ErrSnapshotCorrupt, name)
	}
	c, err := blocking.ReadBinaryData(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
	}
	if n1, n2 := c.KBSizes(); n1 != e.kb1.Len() || n2 != e.kb2.Len() {
		return nil, fmt.Errorf("%w: %s built for KB sizes (%d,%d), snapshot KBs have (%d,%d)",
			ErrSnapshotCorrupt, name, n1, n2, e.kb1.Len(), e.kb2.Len())
	}
	return c, nil
}

// preparedSide returns the epoch's delta-path substrate, decoding the
// persisted one from the mapping on first demand. (nil, nil) means the
// epoch has none — the caller falls back to the full plan.
func (e *epoch) preparedSide() (*pipeline.Prepared, error) {
	if e.prep != nil || e.lazy == nil || !e.lazy.hasPrepared {
		return e.prep, nil
	}
	lz := e.lazy
	lz.prepOnce.Do(func() {
		lz.prep, lz.prepErr = e.decodePrepared()
	})
	return lz.prep, lz.prepErr
}

// decodePrepared restores the prepared section from the mapping. The
// neighbor lists after the embedded substrate have no checksums of
// their own, so the section's outer checksum is verified here, on this
// first access; the nested MPS1 frame then decodes on its own.
func (e *epoch) decodePrepared() (*pipeline.Prepared, error) {
	payload, err := e.lazy.m.Section(snapPrepared)
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
	nEnt := b.Int()
	if b.Err() == nil && nEnt != kb1.Len() {
		b.Fail("neighbor lists cover %d entities, KB1 has %d", nEnt, kb1.Len())
	}
	top := make([][]kb.EntityID, 0, min(nEnt, 1<<20))
	for i := 0; i < nEnt && b.Err() == nil; i++ {
		cnt := b.Int()
		if cnt > kb1.Len() {
			b.Fail("neighbor list larger than the KB (%d > %d)", cnt, kb1.Len())
			break
		}
		nbrs := make([]kb.EntityID, 0, cnt)
		prev := int64(-1)
		for j := 0; j < cnt && b.Err() == nil; j++ {
			id := b.Uvarint()
			if id >= uint64(kb1.Len()) || int64(id) <= prev {
				b.Fail("neighbor %d out of order or range [0,%d)", id, kb1.Len())
				break
			}
			prev = int64(id)
			nbrs = append(nbrs, kb.EntityID(id))
		}
		top = append(top, nbrs)
	}
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	return &pipeline.Prepared{
		Blocks:    bp,
		Neighbors: kb.FrozenFromLists(kb1.kb, n, top, nil),
	}, nil
}

// materializeLocked forces every lazy tier of the current epoch and
// publishes a fully concrete clone. The write side calls it under mu
// before touching state (mutations, SaveIndex, Close), so
// copy-on-write epoch derivation never starts from a partially decoded
// epoch. After it returns nil, no published structure references the
// mapping: the shared lazy parts and both KBs' sync.Onces are drained,
// which also covers readers still holding older epoch pointers.
func (ix *Index) materializeLocked() error {
	e := ix.cur.Load()
	if e.lazy == nil {
		return nil
	}
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
	name, tok, err := e.blocks()
	if err != nil {
		return err
	}
	prep, err := e.preparedSide()
	if err != nil {
		return err
	}
	ne := e.clone()
	ne.nameBlocks, ne.tokenBlocks = name, tok
	ne.prep = prep
	ne.lazy = nil
	ix.cur.Store(ne)
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
// It first materializes every lazy structure — so epoch pointers held
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
	if err := ix.materializeLocked(); err != nil {
		return err
	}
	m := ix.mapped
	ix.mapped = nil
	return m.Close()
}
