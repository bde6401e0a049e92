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
// entry list is always followed by the compaction count and the
// per-entry delta payloads. Snapshots round-trip both; a journal whose
// payloads were stripped still writes (empty) payload lists, reloads
// without inventing any, re-saves to its exact bytes, and is refused
// by Replay; and a section that ends after the entry list — the layout
// version 1 allowed — fails to load as corrupt.
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

	// Strip every delta payload and the compaction counter.
	stripped := back
	stripped.mu.Lock()
	for i := range stripped.journal {
		stripped.journal[i].Delta = nil
	}
	stripped.compactions.Store(0)
	n := len(stripped.journal)
	stripped.mu.Unlock()
	var strippedBytes bytes.Buffer
	if err := SaveIndex(&strippedBytes, stripped); err != nil {
		t.Fatal(err)
	}
	strippedBack, err := LoadIndex(bytes.NewReader(strippedBytes.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, je := range strippedBack.Journal() {
		if je.Delta != nil {
			t.Fatal("reload invented delta payloads")
		}
		if je.Seq == 0 || len(je.Subjects) == 0 {
			t.Fatalf("reload dropped entry fields: %+v", je)
		}
	}
	var resaved bytes.Buffer
	if err := SaveIndex(&resaved, strippedBack); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), strippedBytes.Bytes()) {
		t.Fatalf("stripped snapshot not bit-identical after reload (%d vs %d bytes)", resaved.Len(), strippedBytes.Len())
	}
	// Replaying payload-less entries is refused with the typed
	// truncation error — a replica resyncs from a snapshot instead of
	// silently diverging.
	fresh := internalTestIndex(t)
	if _, err := fresh.Replay(context.Background(), strippedBack.Journal()); !errors.Is(err, ErrJournalTruncated) {
		t.Fatalf("payload-less replay err = %v, want ErrJournalTruncated", err)
	}

	// Drop the stripped journal's tail: a zero compaction count and n
	// empty payload lists, one byte each.
	m, err := binio.BytesMap(strippedBytes.Bytes(), snapshotMagic, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	w := binio.NewWriter(&cut)
	w.Raw(snapshotMagic[:])
	w.Uvarint(snapshotVersion)
	for _, id := range m.SectionIDs() {
		payload, err := m.Section(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == snapJournal {
			payload = payload[:len(payload)-1-n]
		}
		w.Section(id, func(e *binio.Writer) { e.Raw(payload) })
	}
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(bytes.NewReader(cut.Bytes())); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("journal without its tail: err = %v, want ErrSnapshotCorrupt", err)
	}
}
