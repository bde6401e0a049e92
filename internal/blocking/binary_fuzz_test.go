package blocking

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"minoaner/internal/binio"
)

// imageSections returns the payloads of an MPS1 image's sections,
// indexed by section ID minus one.
func imageSections(t testing.TB, data []byte, magic [4]byte, version uint64, n int) [][]byte {
	t.Helper()
	m, err := binio.BytesMap(data, magic, version)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([][]byte, n)
	for id := range secs {
		if secs[id], err = m.Section(uint64(id + 1)); err != nil {
			t.Fatalf("section %d: %v", id+1, err)
		}
	}
	return secs
}

// frameImage frames the payloads as an image: magic, version, the
// sections in ID order with valid checksums, end marker. A decoder fed
// such an image gets past every checksum and meets the payloads
// themselves.
func frameImage(t testing.TB, magic [4]byte, version uint64, secs ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw(magic[:])
	w.Uvarint(version)
	for i, payload := range secs {
		w.Section(uint64(i+1), func(e *binio.Writer) { e.Raw(payload) })
	}
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uvarints encodes the values as consecutive uvarints.
func uvarints(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// decodeAlloc decodes a substrate (MPS1) image, failing the test on
// an error that does not wrap the decoder's corruption error, and
// returns the bytes it allocated.
func decodeAlloc(t *testing.T, data []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadPreparedData(data)
	runtime.ReadMemStats(&after)
	if err != nil && !errors.Is(err, errCorruptPrepared) {
		t.Fatalf("decode: %v does not wrap %v", err, errCorruptPrepared)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersBoundClaimedCounts: a checksum-valid image whose counts
// claim far more keys or members than its payloads hold fails as
// corrupt without reserving memory for the claim.
func TestDecodersBoundClaimedCounts(t *testing.T) {
	t.Run("prepared", func(t *testing.T) {
		data := frameImage(t, preparedMagic, preparedVersion,
			uvarints(1<<30, 0, 1<<20, 0), // |E1|, nameK, token keys, name keys
			uvarints(1<<20),              // 2^20 key offsets, none present
			uvarints(0, 1<<26),           // no key, a 64 MB key slab
		)
		if got := decodeAlloc(t, data); got > 1<<20 {
			t.Fatalf("decoding a %d-byte image allocated %d bytes, want at most %d", len(data), got, 1<<20)
		}
	})
}

// FuzzReadData feeds checksum-valid MPS1 (prepared substrate) images
// with fuzzed section payloads through ReadPreparedData: whatever the
// payloads hold, decoding must not panic, every failure must wrap the
// decoder's corruption error, and the decoder must not allocate out of
// proportion to the image — a claimed count is not a reason to reserve
// memory.
func FuzzReadData(f *testing.F) {
	kb1 := kbFromValues(f, "a", []string{"alpha beta", "gamma delta", "epsilon"})
	kb2 := kbFromValues(f, "b", []string{"alpha gamma", "delta epsilon"})
	for _, p := range []*Prepared{Prepare(kb1, 2, 1, nil), Prepare(kb2, 1, 1, nil)} {
		var buf bytes.Buffer
		if err := p.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		secs := imageSections(f, buf.Bytes(), preparedMagic, preparedVersion, 3)
		f.Add(secs[0], secs[1], secs[2])
	}
	// Counts claiming far more entities, keys or members than the bytes
	// that follow could hold.
	f.Add(uvarints(1<<30, 0, 1<<20, 1<<20), uvarints(1<<20), uvarints(0, 1<<26))
	f.Add(uvarints(1<<30, 1, 0, 1<<20), []byte(nil), uvarints(0, 0, 0, 1<<26))
	f.Fuzz(func(t *testing.T, hdr, tokens, names []byte) {
		data := frameImage(t, preparedMagic, preparedVersion, hdr, tokens, names)
		if got, limit := decodeAlloc(t, data), uint64(1<<20+256*len(data)); got > limit {
			t.Fatalf("decoding a %d-byte image allocated %d bytes, want at most %d", len(data), got, limit)
		}
	})
}
