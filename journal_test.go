package minoaner_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"minoaner"
	"minoaner/internal/binio"
)

// ledgerJournal runs the ledger script on Restaurant up to its Compact
// and returns the index, whose journal then holds every kind of entry
// the script makes: rewrites and inserts on both sides, and a delete.
func ledgerJournal(tb testing.TB) *minoaner.Index {
	tb.Helper()
	b, err := minoaner.GenerateBenchmark("Restaurant", ledgerSeed, ledgerScale)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	steps := ledgerScript(tb, b)
	for _, step := range steps[1 : len(steps)-1] {
		if err := step.apply(ix); err != nil {
			tb.Fatalf("%s: %v", step.name, err)
		}
	}
	return ix
}

// TestJournalSectionRecordsAreWireLines: snapshot section 9 and GET
// /journal carry one encoding. Each record of the section is, byte for
// byte, the matching /journal line without its newline, and decodes to
// the matching journal entry.
func TestJournalSectionRecordsAreWireLines(t *testing.T) {
	ix := ledgerJournal(t)
	journal := ix.Journal()
	m, err := binio.BytesMap(snapshotBytes(t, ix), [4]byte{'M', 'S', 'N', 'P'}, minoaner.SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	const journalSection = 9
	payload, err := m.Section(journalSection)
	if err != nil {
		t.Fatal(err)
	}
	r := binio.NewBytesReader(payload)
	if epoch, compactions := r.Uvarint(), r.Uvarint(); epoch != ix.Epoch() || compactions != ix.Compactions() {
		t.Fatalf("section 9 opens with epoch %d and %d compactions, want %d and %d", epoch, compactions, ix.Epoch(), ix.Compactions())
	}
	if n := r.Int(); n != len(journal) {
		t.Fatalf("section 9 counts %d records, the journal holds %d entries", n, len(journal))
	}
	lines := bytes.SplitAfter(serveBody(t, minoaner.NewServer(ix), "/journal?since=0"), []byte("\n"))
	if len(lines) != len(journal)+1 || len(lines[len(journal)]) != 0 {
		t.Fatalf("/journal sent %d newline-terminated lines, want %d", len(lines)-1, len(journal))
	}
	for i, je := range journal {
		rec := []byte(r.Str())
		if line := lines[i]; !bytes.Equal(append(rec, '\n'), line) {
			t.Fatalf("entry %d: section 9 record\n%s\n/journal line\n%s", i, rec, line)
		}
		got, err := minoaner.DecodeJournalRecord(rec)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, je) {
			t.Fatalf("entry %d decodes to %+v, want %+v", i, got, je)
		}
	}
	if r.Err() != nil || r.More() {
		t.Fatalf("section 9 does not end after its records: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// FuzzJournalRecord feeds arbitrary bytes to the journal record decoder
// behind snapshot section 9 and the replicas. It must fail with an
// error wrapping the record error, never panic, and never allocate
// more than 1 MB + 256 bytes per input byte; a record it accepts must
// re-encode to the same bytes. Seeds: the records of the ledger
// script's journal.
func FuzzJournalRecord(f *testing.F) {
	journal := ledgerJournal(f).Journal()
	for i := range journal {
		f.Add(minoaner.EncodeJournalRecord(&journal[i]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		je, err := minoaner.DecodeJournalRecord(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > limit {
			t.Fatalf("decoding a %d-byte record allocated %d bytes, want at most %d", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, minoaner.ErrJournalRecord) {
				t.Fatalf("decode error does not wrap the record error: %v", err)
			}
			return
		}
		if got := minoaner.EncodeJournalRecord(&je); !bytes.Equal(got, data) {
			t.Fatalf("accepted record re-encodes differently:\n%q\n%q", data, got)
		}
	})
}
