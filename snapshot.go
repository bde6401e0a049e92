package minoaner

import (
	"errors"
	"fmt"
	"io"
	"os"

	"minoaner/internal/binio"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// Index snapshot format. A snapshot persists what an index cannot
// cheaply re-derive — the two built KBs, the delta substrate, and the
// complete match set — so a server process loads it and answers
// queries without re-parsing a single triple. Layout (see
// internal/binio for the section framing; every section is
// CRC32-checksummed):
//
//	magic "MSNP" | uvarint version (4) | sections | end marker
//
//	section 1 (config):   the Config the index was built under,
//	                      followed by the section inventory (the IDs
//	                      of every section written) — the checksummed
//	                      defense against a corrupted section ID making
//	                      an optional section silently vanish.
//	section 2 (kb1):      first KB, embedded KB binary (internal/kb
//	                      "MKB1" version 3, whose URIs are a section of
//	                      their own; includes retained source triples
//	                      when the KB is mutable)
//	section 3 (kb2):      second KB, embedded KB binary
//	section 6 (stats):    purge result and block accounting
//	section 7 (matches):  H1, H2, H3, final matches, H4 discard count
//	section 8 (prepared): frozen left-side substrate of the delta path
//	                      (see Index.QueryKB): uvarint N, the embedded
//	                      one-sided token/name index (internal/blocking
//	                      "MPS1" version 2: per side a sorted key slab,
//	                      offsets and an int32 member array), then the
//	                      frozen per-entity neighbor lists as one table
//	                      (an int32 end offset per KB1 entity, then the
//	                      int32 members). Mandatory: B_N and B_T are
//	                      derived from it (joined with KB2's substrate,
//	                      then purged), and the derivation is checked
//	                      against section 6.
//	section 9 (journal):  uvarint epoch | uvarint Compact count |
//	                      uvarint record count | one length-prefixed
//	                      journal record (journal.go) per absorbed
//	                      Upsert/Delete since the last Compact, the
//	                      records' epochs contiguous up to the epoch.
//	                      Written only for indexes past epoch 0 (or
//	                      with journal entries, or a non-zero compaction
//	                      count); snapshots of mutated indexes persist
//	                      the *mutated* state in the other sections.
//
// IDs 4 and 5 (the block collections B_N and B_T, stored by version 1)
// and 10 (the shard count of a removed scatter-gather engine) are
// retired: never reuse them. Version 2 wrote section 9 field by field
// (an entry list, the Compact count, then a tail of per-upsert delta
// payloads); version 3 replaced that layout with the records. Version
// 4 stores the arrays an open copies in their in-memory layout: each
// KB's URIs as a slab (MKB1 version 3), the substrate's postings and
// the neighbor lists as fixed-width tables, so an open and the first
// delta copy a fixed number of slabs instead of walking entity records
// and inserting keys.
//
// Compatibility promise: a reader accepts exactly the format version
// it names (currently 4), skips unknown section IDs within it, and
// rejects everything else — including any payload whose checksum does
// not match, and derived blocks that disagree with the stats — with an
// error wrapping ErrSnapshotCorrupt. Saving a loaded index reproduces
// the snapshot bit-for-bit, journal included.

var snapshotMagic = [4]byte{'M', 'S', 'N', 'P'}

const snapshotVersion = 4

// Section IDs of the snapshot frame (4, 5 and 10 are retired).
//
//minoaner:sections writer=SaveIndex reader=readConfigSection,openIndexMap,readStatsSection,readMatchesSection,decodePrepared,readJournalSection
const (
	snapConfig   = 1
	snapKB1      = 2
	snapKB2      = 3
	snapStats    = 6
	snapMatches  = 7
	snapPrepared = 8
	snapJournal  = 9
)

// ErrSnapshotCorrupt is wrapped by every failure caused by damaged or
// incompatible snapshot data: from LoadIndex and OpenIndex, and on a
// mapped index from the first-demand decodes behind QueryKB, SaveIndex,
// mutations and Close.
var ErrSnapshotCorrupt = errors.New("minoaner: corrupt index snapshot")

// SaveIndex writes the index snapshot. The encoding is deterministic:
// saving the same index (built or loaded) always produces the same
// bytes. SaveIndex captures a consistent epoch/journal pair: it
// briefly excludes mutations (readers are unaffected), so a snapshot
// never interleaves two epochs.
func SaveIndex(w io.Writer, ix *Index) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// A mapped index serializes from fully decoded structures — the
	// save must include sections the read path has not touched yet.
	e := ix.cur.Load()
	if err := e.drain(); err != nil {
		return err
	}
	prep, err := e.d.prep()
	if err != nil {
		return err
	}

	withJournal := e.seq > 0 || len(ix.journal) > 0 || ix.compactions.Load() > 0
	sections := []uint64{snapConfig, snapKB1, snapKB2, snapStats, snapMatches, snapPrepared}
	if withJournal {
		sections = append(sections, snapJournal)
	}

	bw := binio.NewWriter(w)
	bw.Raw(snapshotMagic[:])
	bw.Uvarint(snapshotVersion)
	bw.Section(snapConfig, func(enc *binio.Writer) {
		writeConfig(enc, e.cfg)
		enc.Int(len(sections))
		for _, id := range sections {
			enc.Uvarint(id)
		}
	})
	if err := writeEmbedded(bw, snapKB1, e.kb1.kb.WriteBinary); err != nil {
		return err
	}
	if err := writeEmbedded(bw, snapKB2, e.kb2.kb.WriteBinary); err != nil {
		return err
	}
	bw.Section(snapStats, func(enc *binio.Writer) {
		enc.Int(e.purge.Cutoff1)
		enc.Int(e.purge.Cutoff2)
		enc.Int(e.purge.RemovedBlocks)
		enc.Uvarint(uint64(e.purge.RemovedComparisons))
		enc.Int(e.nameBlockCount)
		enc.Int(e.tokenBlockCount)
		enc.Uvarint(uint64(e.nameComparisons))
		enc.Uvarint(uint64(e.tokenComparisons))
	})
	bw.Section(snapMatches, func(enc *binio.Writer) {
		writePairs(enc, e.h1)
		writePairs(enc, e.h2)
		writePairs(enc, e.h3)
		writePairs(enc, e.matches)
		enc.Int(e.discardedByH4)
	})
	bw.Section(snapPrepared, func(enc *binio.Writer) {
		enc.Int(prep.Neighbors.N())
		enc.Embed(prep.Blocks.WriteBinary)
		writeNeighborLists(enc, prep.Neighbors.TopLists())
	})
	if withJournal {
		bw.Section(snapJournal, func(enc *binio.Writer) {
			writeJournalSection(enc, e.seq, ix.journal, ix.compactions.Load())
		})
	}
	bw.End()
	return bw.Flush()
}

// writeNeighborLists encodes the frozen per-entity neighbor lists as
// one table: the end offset of each entity's list, then the lists back
// to back, both fixed-width int32 arrays.
func writeNeighborLists(e *binio.Writer, top [][]kb.EntityID) {
	ends := make([]int32, len(top))
	var members []kb.EntityID
	for i, nbrs := range top {
		members = append(members, nbrs...)
		ends[i] = int32(len(members))
	}
	binio.WriteInt32s(e, ends)
	binio.WriteInt32s(e, members)
}

// writeJournalSection encodes section 9: the epoch number, the
// compaction count and one record per journal entry.
func writeJournalSection(enc *binio.Writer, seq uint64, journal []JournalEntry, compactions uint64) {
	enc.Uvarint(seq)
	enc.Uvarint(compactions)
	enc.Int(len(journal))
	for i := range journal {
		enc.Str(string(encodeJournalRecord(&journal[i])))
	}
}

// readJournalSection restores section 9, when the snapshot has one,
// into ix and its current epoch: the epoch number, the compaction
// count and the mutation journal.
func (ix *Index) readJournalSection(m *binio.Map) error {
	if !m.Has(snapJournal) {
		return nil
	}
	b, err := m.Reader(snapJournal)
	if err != nil {
		return fmt.Errorf("%w: journal: %v", ErrSnapshotCorrupt, err)
	}
	e := ix.cur.Load()
	seq := b.Uvarint()
	compactions := b.Uvarint()
	n := b.Int()
	if b.Err() == nil && n > 1<<24 {
		b.Fail("absurd journal length %d", n)
	}
	if b.Err() == nil && uint64(n) > seq {
		b.Fail("journal of %d entries cannot cover epochs up to %d", n, seq)
	}
	entries := make([]JournalEntry, 0, min(n, 1<<16))
	base := seq - uint64(n)
	for i := 0; i < n && b.Err() == nil; i++ {
		rec := b.Str()
		if b.Err() != nil {
			break
		}
		je, err := decodeJournalRecord([]byte(rec))
		if err != nil {
			b.Fail("journal entry %d: %v", i, err)
			break
		}
		// The journal is contiguous by construction: entry i produced
		// epoch base+i+1 and the last entry produced the current epoch.
		// JournalSince's cursor arithmetic depends on it.
		if je.Seq != base+uint64(i)+1 {
			b.Fail("journal entry %d out of sequence (epoch %d, want %d)", i, je.Seq, base+uint64(i)+1)
			break
		}
		entries = append(entries, je)
	}
	if b.More() {
		b.Fail("%d bytes after the last journal record", b.Len())
	}
	if err := b.Err(); err != nil {
		return fmt.Errorf("%w: journal: %v", ErrSnapshotCorrupt, err)
	}
	ix.compactions.Store(compactions)
	e.seq = seq
	ix.journal = entries
	ix.journalLen.Store(int64(len(entries)))
	return nil
}

// LoadIndex reads an index snapshot written by SaveIndex and decodes
// it in full, verifying every section checksum and the referential
// integrity of the match lists against the embedded KBs. The returned
// index keeps no reference to the image.
func LoadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return loadIndexImage(data)
}

// LoadIndexFile reads an index snapshot from a file (see LoadIndex).
func LoadIndexFile(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadIndexImage(data)
}

// loadIndexImage is the eager decode: the mapped open, a checksum pass
// over every section in the directory (unknown IDs included), then a
// full materialization that leaves nothing referencing data.
func loadIndexImage(data []byte) (*Index, error) {
	ix, err := OpenIndex(data)
	if err != nil {
		return nil, err
	}
	for _, id := range ix.mapped.SectionIDs() {
		if _, err := ix.mapped.Section(id); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
	}
	e := ix.cur.Load()
	for _, side := range []struct {
		name string
		k    *KB
	}{{"kb1", e.kb1}, {"kb2", e.kb2}} {
		if err := side.k.kb.Detach(); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, side.name, err)
		}
	}
	if err := ix.Close(); err != nil {
		return nil, err
	}
	return ix, nil
}

// writeEmbedded streams one nested format (a KB) into its own section;
// the section framing delimits and checksums it.
func writeEmbedded(bw *binio.Writer, id uint64, write func(io.Writer) error) error {
	bw.Section(id, func(e *binio.Writer) {
		e.Embed(write)
	})
	return bw.Err()
}

// writeConfig encodes the public Config (including the ablation
// switches: an index built without H4 must query without H4 too).
func writeConfig(e *binio.Writer, c Config) {
	e.Int(c.K)
	e.Int(c.N)
	e.Int(c.NameAttributes)
	e.Float(c.Theta)
	e.Float(c.PurgeEntityFraction)
	e.Int(c.PurgeMinEntities)
	e.Int(c.Workers)
	e.Bool(c.DisableH1)
	e.Bool(c.DisableH2)
	e.Bool(c.DisableH3)
	e.Bool(c.DisableH4)
}

// readConfigSection decodes section 1: the Config, which must
// validate, and the section inventory, which must match the directory.
func readConfigSection(m *binio.Map) (Config, error) {
	b, err := m.Reader(snapConfig)
	if err != nil {
		return Config{}, fmt.Errorf("%w: config: %v", ErrSnapshotCorrupt, err)
	}
	var c Config
	c.K = b.Int()
	c.N = b.Int()
	c.NameAttributes = b.Int()
	c.Theta = b.Float()
	c.PurgeEntityFraction = b.Float()
	c.PurgeMinEntities = b.Int()
	c.Workers = b.Int()
	c.DisableH1 = b.Bool()
	c.DisableH2 = b.Bool()
	c.DisableH3 = b.Bool()
	c.DisableH4 = b.Bool()
	if err := b.Err(); err != nil {
		return Config{}, fmt.Errorf("%w: config: %v", ErrSnapshotCorrupt, err)
	}
	if err := c.internal().Validate(); err != nil {
		return Config{}, fmt.Errorf("%w: config: %v", ErrSnapshotCorrupt, err)
	}
	if err := m.VerifyInventory(b); err != nil {
		return Config{}, fmt.Errorf("%w: config inventory: %v", ErrSnapshotCorrupt, err)
	}
	return c, nil
}

// readStatsSection decodes section 6, the purge result and block
// accounting, into e.
func (e *epoch) readStatsSection(m *binio.Map) error {
	b, err := m.Reader(snapStats)
	if err != nil {
		return fmt.Errorf("%w: stats: %v", ErrSnapshotCorrupt, err)
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
		return fmt.Errorf("%w: stats: %v", ErrSnapshotCorrupt, err)
	}
	return nil
}

// readMatchesSection decodes section 7, the per-heuristic and final
// match lists and the H4 discard count, into e; every pair must name
// entities of KBs with n1 and n2 entities.
func (e *epoch) readMatchesSection(m *binio.Map, n1, n2 int) error {
	b, err := m.Reader(snapMatches)
	if err != nil {
		return fmt.Errorf("%w: matches: %v", ErrSnapshotCorrupt, err)
	}
	e.h1 = readPairs(b, n1, n2)
	e.h2 = readPairs(b, n1, n2)
	e.h3 = readPairs(b, n1, n2)
	e.matches = readPairs(b, n1, n2)
	e.discardedByH4 = b.Int()
	if err := b.Err(); err != nil {
		return fmt.Errorf("%w: matches: %v", ErrSnapshotCorrupt, err)
	}
	return nil
}

func writePairs(e *binio.Writer, pairs []eval.Pair) {
	e.Int(len(pairs))
	for _, p := range pairs {
		e.Uvarint(uint64(p.E1))
		e.Uvarint(uint64(p.E2))
	}
}

func readPairs(b *binio.Reader, n1, n2 int) []eval.Pair {
	n := b.Int()
	if b.Err() != nil {
		return nil
	}
	if n > n1*n2 && n > 1<<20 {
		b.Fail("absurd pair count %d", n)
		return nil
	}
	// A pair takes at least two bytes, so a count the payload cannot
	// hold fails when the payload runs out, not with a huge allocation.
	out := make([]eval.Pair, 0, min(n, b.Len()/2))
	for i := 0; i < n && b.Err() == nil; i++ {
		e1 := b.Uvarint()
		e2 := b.Uvarint()
		if e1 >= uint64(n1) || e2 >= uint64(n2) {
			b.Fail("pair (%d,%d) out of range for KB sizes (%d,%d)", e1, e2, n1, n2)
			return nil
		}
		out = append(out, eval.Pair{E1: kb.EntityID(e1), E2: kb.EntityID(e2)})
	}
	return out
}
