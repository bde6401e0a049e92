package kb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"minoaner/internal/binio"
)

// imageSections returns the payloads of a KB image's six sections,
// indexed by section ID minus one.
func imageSections(t testing.TB, kb *KB) [6][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := binio.BytesMap(buf.Bytes(), binaryMagic, binaryVersion)
	if err != nil {
		t.Fatal(err)
	}
	var secs [6][]byte
	for id := uint64(secHeader); id <= secURIs; id++ {
		payload, err := m.Section(id)
		if err != nil {
			t.Fatalf("section %d: %v", id, err)
		}
		secs[id-1] = payload
	}
	return secs
}

// mkb1Image frames the payloads as an MKB1 image: magic, version, the
// six sections in ID order with valid checksums, end marker. A
// decoder fed such an image gets past every checksum and meets the
// payloads themselves.
func mkb1Image(t testing.TB, secs [6][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw(binaryMagic[:])
	w.Uvarint(binaryVersion)
	for i, payload := range secs {
		w.Section(uint64(i+1), func(e *binio.Writer) { e.Raw(payload) })
	}
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenBinary feeds checksum-valid MKB1 images with fuzzed section
// payloads through the lazy decoder's every reader (readHeader,
// readURIs, readPreds, readStats, fillEntities, readSources): whatever
// the payloads hold, decoding must not panic, every failure must wrap
// errCorrupt, and the decoder must not allocate out of proportion to
// the image — a claimed count is not a reason to reserve memory.
func FuzzOpenBinary(f *testing.F) {
	secs := imageSections(f, buildTestKB(f))
	f.Add(secs[0], secs[1], secs[2], secs[3], secs[4], secs[5])
	// Counts claiming far more entities, URIs, terms or refs than the
	// bytes that follow could hold.
	claim := binary.AppendUvarint(nil, 1<<30)
	f.Add(secs[0], secs[1], secs[2], claim, secs[4], secs[5])
	f.Add(secs[0], secs[1], secs[2], secs[3], append([]byte{0, 0}, claim...), secs[5])
	f.Add(secs[0], secs[1], secs[2], secs[3], append([]byte{0, 0, 0}, claim...), secs[5])
	f.Add(secs[0], secs[1], secs[2], secs[3], secs[4], claim)
	f.Add(secs[0], secs[1], secs[2], secs[3], secs[4], append([]byte{0}, claim...))
	f.Fuzz(func(t *testing.T, hdr, preds, stats, ents, src, uris []byte) {
		data := mkb1Image(t, [6][]byte{hdr, preds, stats, ents, src, uris})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode(t, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > limit {
			t.Fatalf("decoding a %d-byte image allocated %d bytes, want at most %d", len(data), got, limit)
		}
	})
}

// decode opens the image and forces both lazy tiers, failing the test
// on any error that does not wrap errCorrupt.
func decode(t *testing.T, data []byte) {
	t.Helper()
	kb, err := OpenBinary(data)
	if err != nil {
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("OpenBinary: %v does not wrap errCorrupt", err)
		}
		return
	}
	if err := kb.Materialize(); err != nil && !errors.Is(err, errCorrupt) {
		t.Fatalf("Materialize: %v does not wrap errCorrupt", err)
	}
	if err := kb.MaterializeSources(); err != nil && !errors.Is(err, errCorrupt) {
		t.Fatalf("MaterializeSources: %v does not wrap errCorrupt", err)
	}
}
