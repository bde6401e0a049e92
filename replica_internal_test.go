package minoaner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/binio"
)

// flushRecorder wraps httptest.ResponseRecorder counting Flush calls —
// the regression fixture for statusWriter's flusher passthrough.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// plainRecorder deliberately does NOT implement http.Flusher.
type plainRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (p *plainRecorder) Header() http.Header         { return p.header }
func (p *plainRecorder) WriteHeader(code int)        { p.status = code }
func (p *plainRecorder) Write(b []byte) (int, error) { return p.body.Write(b) }

func internalTestIndex(t *testing.T) *Index {
	t.Helper()
	b, err := GenerateBenchmark("Restaurant", 19, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(b.KB1, b.KB2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// mutateInternal applies n scripted upserts so the journal has
// replayable entries without importing the external test helpers.
func mutateInternal(t *testing.T, ix *Index, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lines := fmt.Sprintf("<http://int/e%d> <http://int/name> \"entity %d omega\" .\n<http://int/e%d> <http://int/kind> \"internal\" .",
			i, i, i)
		delta, err := LoadKB("delta", strings.NewReader(lines))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Upsert(context.Background(), 2, delta); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatusWriterForwardsFlush is the regression test for the
// statusWriter bug: the instrumentation wrapper used to hide the
// underlying http.Flusher, so streamed responses (NDJSON journal
// tails) buffered until the handler returned.
func TestStatusWriterForwardsFlush(t *testing.T) {
	ix := internalTestIndex(t)
	mutateInternal(t, ix, 2)
	srv := NewServer(ix)

	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/journal?since=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/journal status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.flushes < 2 {
		t.Fatalf("statusWriter forwarded %d flushes, want one per journal entry (>= 2)", rec.flushes)
	}

	// http.ResponseController reaches the flusher through Unwrap too.
	rec2 := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	sw := &statusWriter{ResponseWriter: rec2}
	if err := http.NewResponseController(sw).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush through statusWriter: %v", err)
	}
	if rec2.flushes != 1 {
		t.Fatalf("ResponseController flushed %d times, want 1", rec2.flushes)
	}
	if sw.status != http.StatusOK {
		t.Fatalf("Flush before WriteHeader recorded status %d, want 200", sw.status)
	}

	// A non-flushing ResponseWriter must not panic the handler.
	plain := &plainRecorder{header: http.Header{}}
	srv.ServeHTTP(plain, httptest.NewRequest("GET", "/journal?since=0", nil))
	if plain.status != http.StatusOK {
		t.Fatalf("/journal over non-flusher status %d", plain.status)
	}
}

// TestSaveIndexFileAtomic is the regression test for the truncate-in-
// place bug: a failing save must leave the previous snapshot readable,
// a successful one replaces it with no temp files left behind.
func TestSaveIndexFileAtomic(t *testing.T) {
	ix := internalTestIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.msnp")
	if err := SaveIndexFile(path, ix); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A write failure mid-save (simulated through the same atomic
	// helper SaveIndexFile uses) leaves the old bytes intact.
	boom := errors.New("disk full")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("writeFileAtomic err = %v, want the write error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, good) {
		t.Fatal("failed save corrupted the existing snapshot")
	}
	if _, err := LoadIndexFile(path); err != nil {
		t.Fatalf("snapshot unreadable after failed save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover temp files after failed save: %v", entries)
	}

	// A successful save replaces the file.
	mutateInternal(t, ix, 1)
	if err := SaveIndexFile(path, ix); err != nil {
		t.Fatal(err)
	}
	replaced, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(replaced, good) {
		t.Fatal("successful save did not replace the snapshot")
	}
	back, err := LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch() != ix.Epoch() {
		t.Fatalf("reloaded epoch %d, want %d", back.Epoch(), ix.Epoch())
	}
}

// TestEnsureMutatorWrapsCause is the regression test for the swallowed
// store error: mutating an index whose KBs cannot back a store must
// keep errors.Is(err, ErrNotMutable) working AND carry the cause.
func TestEnsureMutatorWrapsCause(t *testing.T) {
	b, err := GenerateBenchmark("Restaurant", 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(b.KB1, b.KB2.WithoutSources(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	delta, err := LoadKB("delta", strings.NewReader("<http://x/a> <http://x/n> \"v\" ."))
	if err != nil {
		t.Fatal(err)
	}
	err = ix.Upsert(context.Background(), 2, delta)
	if !errors.Is(err, ErrNotMutable) {
		t.Fatalf("Upsert err = %v, want ErrNotMutable", err)
	}
	if !strings.Contains(err.Error(), "second KB") {
		t.Fatalf("error names no KB: %v", err)
	}
	if !strings.Contains(err.Error(), "without source retention") {
		t.Fatalf("error hides the store cause: %v", err)
	}
}

// TestJournalSectionFormatCompat pins section 9's one layout: the
// epoch, the compaction count, then one record per entry. Snapshots
// round-trip the journal; Replay refuses an upsert entry without its
// delta payload with the typed truncation error; and a section whose
// upsert record lost its payload, or that still carries version 2's
// per-entry payload tail after the records, fails to load as corrupt.
func TestJournalSectionFormatCompat(t *testing.T) {
	ix := internalTestIndex(t)
	mutateInternal(t, ix, 3)
	if err := ix.Delete(context.Background(), 2, "http://int/e0"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	back, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Journal(), ix.Journal()) {
		t.Fatal("journal (with delta payloads) diverges after reload")
	}
	if back.Compactions() != ix.Compactions() {
		t.Fatal("compaction counter lost in round-trip")
	}

	// An upsert entry without its payload is invalid input to Replay:
	// a replica resyncs from a snapshot instead of silently diverging.
	stripped := ix.Journal()
	for i := range stripped {
		stripped[i].Delta = nil
	}
	fresh := internalTestIndex(t)
	if _, err := fresh.Replay(context.Background(), stripped); !errors.Is(err, ErrJournalTruncated) {
		t.Fatalf("payload-less replay err = %v, want ErrJournalTruncated", err)
	}

	// withJournal re-frames the snapshot with section 9 replaced.
	withJournal := func(section func(*binio.Writer)) []byte {
		m, err := binio.BytesMap(buf.Bytes(), snapshotMagic, snapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		w := binio.NewWriter(&out)
		w.Raw(snapshotMagic[:])
		w.Uvarint(snapshotVersion)
		for _, id := range m.SectionIDs() {
			payload, err := m.Section(id)
			if err != nil {
				t.Fatal(err)
			}
			if id == snapJournal {
				w.Section(id, section)
				continue
			}
			w.Section(id, func(e *binio.Writer) { e.Raw(payload) })
		}
		w.End()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	// The unchanged section re-frames to the saved bytes.
	journal := ix.Journal()
	same := withJournal(func(e *binio.Writer) { writeJournalSection(e, ix.Epoch(), journal, ix.Compactions()) })
	if !bytes.Equal(same, buf.Bytes()) {
		t.Fatal("re-framing the saved journal section changed the snapshot")
	}
	for _, bad := range []struct {
		name    string
		section func(*binio.Writer)
	}{
		{"upsert records without payload", func(e *binio.Writer) {
			writeJournalSection(e, ix.Epoch(), stripped, ix.Compactions())
		}},
		{"version 2's payload tail after the records", func(e *binio.Writer) {
			writeJournalSection(e, ix.Epoch(), journal, ix.Compactions())
			e.Uvarint(ix.Compactions())
			for _, je := range journal {
				e.Int(len(je.Delta))
				for _, line := range je.Delta {
					e.Str(line)
				}
			}
		}},
	} {
		if _, err := LoadIndex(bytes.NewReader(withJournal(bad.section))); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", bad.name, err)
		}
	}
}
