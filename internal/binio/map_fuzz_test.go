package binio_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"minoaner"
	"minoaner/internal/binio"
)

// framings are the formats a Map is opened under: the snapshot (MSNP),
// the KB image (MKB1) and the prepared substrate (MPS1), each at the
// version this build writes.
var framings = []struct {
	magic   [4]byte
	version uint64
}{
	{[4]byte{'M', 'S', 'N', 'P'}, 4},
	{[4]byte{'M', 'K', 'B', '1'}, 3},
	{[4]byte{'M', 'P', 'S', '1'}, 2},
}

// FuzzMap fuzzes the section framing on its own: whatever the bytes,
// building a directory under each format's magic and version, reading
// every section it lists (checksum-verified and raw) and checking a
// leading inventory must not panic, must fail only with errors that
// wrap binio.ErrCorrupt, and must not allocate beyond 1 MB plus 256
// bytes per input byte. Seeds: a fresh Restaurant x0.1 snapshot and
// its first KB's image.
func FuzzMap(f *testing.F) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 3, 0.1)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	var snap, img bytes.Buffer
	if err := minoaner.SaveIndex(&snap, ix); err != nil {
		f.Fatal(err)
	}
	if err := b.KB1.WriteBinary(&img); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(img.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, fr := range framings {
			walkMap(t, data, fr.magic, fr.version)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > limit {
			t.Fatalf("mapping a %d-byte image allocated %d bytes, want at most %d", len(data), got, limit)
		}
	})
}

// walkMap opens data as a Map and reads everything its directory
// names, failing the test on any error that is not typed.
func walkMap(t *testing.T, data []byte, magic [4]byte, version uint64) {
	t.Helper()
	typed := func(what string, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("%s: %v does not wrap binio.ErrCorrupt", what, err)
		}
	}
	m, err := binio.BytesMap(data, magic, version)
	if err != nil {
		typed("BytesMap", err)
		return
	}
	defer m.Close()
	for i, id := range m.SectionIDs() {
		if !m.Has(id) {
			t.Fatalf("section %d listed but missing", id)
		}
		raw, ok := m.Raw(id)
		payload, err := m.Section(id)
		typed("Section", err)
		if !ok || err == nil && !bytes.Equal(raw, payload) {
			t.Fatalf("section %d: raw and verified payloads differ", id)
		}
		if i == 0 && err == nil {
			r, err := m.Reader(id)
			typed("Reader", err)
			if err == nil {
				typed("VerifyInventory", m.VerifyInventory(r))
			}
		}
	}
}
