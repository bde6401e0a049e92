package minoaner

import (
	"errors"
	"fmt"
	"os"

	"minoaner/internal/binio"
	"minoaner/internal/kb"
)

// SnapshotKBInfo summarizes one embedded KB of a snapshot.
type SnapshotKBInfo struct {
	Name     string
	Entities int
	Triples  int
	// Sources reports whether the KB retains its source triples (the
	// precondition for mutating the index).
	Sources bool
}

// SnapshotInfo is InspectIndexFile's description of a snapshot file.
type SnapshotInfo struct {
	Size   int64
	Config Config

	KB1, KB2 SnapshotKBInfo

	NameBlocks, TokenBlocks           int
	NameComparisons, TokenComparisons int64
	PurgedBlocks                      int

	Matches, ByName, ByValue, ByRank int
	DiscardedByH4                    int

	// Prepared reports whether the snapshot persists the frozen delta
	// substrate (section 8).
	Prepared bool

	Epoch          uint64
	JournalEntries int
}

// Mutable reports whether an index loaded from the snapshot accepts
// Upsert/Delete: both KBs must retain their source triples.
func (si *SnapshotInfo) Mutable() bool { return si.KB1.Sources && si.KB2.Sources }

// InspectIndexFile describes a snapshot from its section directory
// without loading the index: KB bulk is never decoded (their sectioned
// headers answer name/size questions in O(header)), only the small
// config/stats/matches/journal sections are read. The work is
// proportional to the directory and those sections, not to the KBs —
// inspecting a multi-gigabyte snapshot costs about the same as a tiny
// one.
func InspectIndexFile(path string) (*SnapshotInfo, error) {
	m, err := binio.OpenMap(path, snapshotMagic, snapshotVersion)
	if err != nil {
		if errors.Is(err, binio.ErrCorrupt) {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		return nil, err
	}
	defer m.Close()
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	si := &SnapshotInfo{Size: st.Size(), Prepared: m.Has(snapPrepared)}

	b, err := m.Reader(snapConfig)
	if err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrSnapshotCorrupt, err)
	}
	si.Config = readConfig(b)
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrSnapshotCorrupt, err)
	}

	inspectKB := func(id uint64, name string) (SnapshotKBInfo, error) {
		raw, ok := m.Raw(id)
		if !ok {
			return SnapshotKBInfo{}, fmt.Errorf("%w: missing %s section", ErrSnapshotCorrupt, name)
		}
		if !kb.LazyCapable(raw) {
			// Pre-sectioned KB images decode eagerly; their snapshot
			// section's checksum stands in for the missing inner ones.
			if raw, err = m.Section(id); err != nil {
				return SnapshotKBInfo{}, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
			}
		}
		info, err := kb.InspectBinary(raw)
		if err != nil {
			return SnapshotKBInfo{}, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
		}
		return SnapshotKBInfo{Name: info.Name, Entities: info.Entities, Triples: info.Triples, Sources: info.HasSources}, nil
	}
	if si.KB1, err = inspectKB(snapKB1, "kb1"); err != nil {
		return nil, err
	}
	if si.KB2, err = inspectKB(snapKB2, "kb2"); err != nil {
		return nil, err
	}

	if b, err = m.Reader(snapStats); err != nil {
		return nil, fmt.Errorf("%w: stats: %v", ErrSnapshotCorrupt, err)
	}
	b.Int() // purge cutoff 1
	b.Int() // purge cutoff 2
	si.PurgedBlocks = b.Int()
	b.Uvarint() // purged comparisons
	si.NameBlocks = b.Int()
	si.TokenBlocks = b.Int()
	si.NameComparisons = int64(b.Uvarint())
	si.TokenComparisons = int64(b.Uvarint())
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: stats: %v", ErrSnapshotCorrupt, err)
	}

	if b, err = m.Reader(snapMatches); err != nil {
		return nil, fmt.Errorf("%w: matches: %v", ErrSnapshotCorrupt, err)
	}
	for _, dst := range []*int{&si.ByName, &si.ByValue, &si.ByRank, &si.Matches} {
		*dst = skimPairs(b)
	}
	si.DiscardedByH4 = b.Int()
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: matches: %v", ErrSnapshotCorrupt, err)
	}

	if m.Has(snapJournal) {
		// Only the leading epoch number and entry count; the entries
		// themselves stay unread.
		jb, err := m.Reader(snapJournal)
		if err != nil {
			return nil, fmt.Errorf("%w: journal: %v", ErrSnapshotCorrupt, err)
		}
		si.Epoch = jb.Uvarint()
		si.JournalEntries = jb.Int()
		if err := jb.Err(); err != nil {
			return nil, fmt.Errorf("%w: journal: %v", ErrSnapshotCorrupt, err)
		}
	}
	return si, nil
}

// skimPairs counts one pair list without materializing it.
func skimPairs(b *binio.Reader) int {
	n := b.Int()
	if b.Err() == nil && n > 1<<28 {
		b.Fail("absurd pair count %d", n)
		return 0
	}
	for i := 0; i < n && b.Err() == nil; i++ {
		b.Uvarint()
		b.Uvarint()
	}
	return n
}
