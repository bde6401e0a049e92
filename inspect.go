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
	Size int64
	// Version is the snapshot's format version.
	Version int
	Config  Config

	KB1, KB2 SnapshotKBInfo

	NameBlocks, TokenBlocks           int
	NameComparisons, TokenComparisons int64
	PurgedBlocks                      int

	Matches, ByName, ByValue, ByRank int
	DiscardedByH4                    int

	Epoch          uint64
	JournalEntries int
}

// Mutable reports whether an index loaded from the snapshot accepts
// Upsert/Delete: both KBs must retain their source triples.
func (si *SnapshotInfo) Mutable() bool { return si.KB1.Sources && si.KB2.Sources }

// InspectIndexFile describes a snapshot from its section directory
// without loading the index: KB bulk is never decoded (their sectioned
// headers answer name/size questions in O(header)), only the small
// config/stats/matches/journal sections are read, by the same readers
// OpenIndex uses. The work is proportional to the directory and those
// sections, not to the KBs — inspecting a multi-gigabyte snapshot costs
// about the same as a tiny one.
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

	cfg, err := readConfigSection(m)
	if err != nil {
		return nil, err
	}
	inspectKB := func(id uint64, name string) (SnapshotKBInfo, error) {
		raw, ok := m.Raw(id)
		if !ok {
			return SnapshotKBInfo{}, fmt.Errorf("%w: missing %s section", ErrSnapshotCorrupt, name)
		}
		info, err := kb.InspectBinary(raw)
		if err != nil {
			return SnapshotKBInfo{}, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
		}
		return SnapshotKBInfo{Name: info.Name, Entities: info.Entities, Triples: info.Triples, Sources: info.HasSources}, nil
	}
	kb1, err := inspectKB(snapKB1, "kb1")
	if err != nil {
		return nil, err
	}
	kb2, err := inspectKB(snapKB2, "kb2")
	if err != nil {
		return nil, err
	}

	// A scratch index receives the small sections.
	e := &epoch{}
	ix := &Index{}
	ix.cur.Store(e)
	if err := e.readStatsSection(m); err != nil {
		return nil, err
	}
	if err := e.readMatchesSection(m, kb1.Entities, kb2.Entities); err != nil {
		return nil, err
	}
	if err := ix.readJournalSection(m); err != nil {
		return nil, err
	}
	return &SnapshotInfo{
		Size:             st.Size(),
		Version:          snapshotVersion,
		Config:           cfg,
		KB1:              kb1,
		KB2:              kb2,
		NameBlocks:       e.nameBlockCount,
		TokenBlocks:      e.tokenBlockCount,
		NameComparisons:  e.nameComparisons,
		TokenComparisons: e.tokenComparisons,
		PurgedBlocks:     e.purge.RemovedBlocks,
		Matches:          len(e.matches),
		ByName:           len(e.h1),
		ByValue:          len(e.h2),
		ByRank:           len(e.h3),
		DiscardedByH4:    e.discardedByH4,
		Epoch:            e.seq,
		JournalEntries:   len(ix.journal),
	}, nil
}
