package blocking

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"minoaner/internal/binio"
)

// imageSections returns the payloads of an MBC1 or MPS1 image's
// sections, indexed by section ID minus one.
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

// decodeAlloc decodes a collection (MBC1) or substrate (MPS1) image,
// failing the test on an error that does not wrap the decoder's
// corruption error, and returns the bytes it allocated.
func decodeAlloc(t *testing.T, prepared bool, data []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var err error
	want := errCorrupt
	if prepared {
		_, err = ReadPreparedData(data)
		want = errCorruptPrepared
	} else {
		_, err = ReadBinaryData(data)
	}
	runtime.ReadMemStats(&after)
	if err != nil && !errors.Is(err, want) {
		t.Fatalf("decode: %v does not wrap %v", err, want)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersBoundClaimedCounts: checksum-valid images whose counts
// claim far more blocks, members or keys than their payloads hold fail
// as corrupt without reserving memory for the claim.
func TestDecodersBoundClaimedCounts(t *testing.T) {
	cases := []struct {
		name     string
		prepared bool
		data     []byte
	}{
		{"collection", false, frameImage(t, collectionMagic, collectionVersion,
			uvarints(1<<40, 1, 1<<20), // |E1|, |E2|, block count
			uvarints(0, 1<<26),        // empty key, an E1 side of 2^26 members
		)},
		{"prepared", true, frameImage(t, preparedMagic, preparedVersion,
			uvarints(1<<40, 0, 1<<20, 0), // |E1|, nameK, token keys, name keys
			uvarints(0, 1<<20),           // empty key, a posting of 2^20 members
			nil,
		)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := decodeAlloc(t, tc.prepared, tc.data); got > 1<<20 {
				t.Fatalf("decoding a %d-byte image allocated %d bytes, want at most %d", len(tc.data), got, 1<<20)
			}
		})
	}
}

// FuzzReadData feeds checksum-valid MBC1 (collection) and MPS1
// (prepared substrate) images with fuzzed section payloads through
// ReadBinaryData and ReadPreparedData: whatever the payloads hold,
// decoding must not panic, every failure must wrap the decoder's
// corruption error, and the decoder must not allocate out of
// proportion to the image — a claimed count is not a reason to reserve
// memory.
func FuzzReadData(f *testing.F) {
	kb1 := kbFromValues(f, "a", []string{"alpha beta", "gamma delta", "epsilon"})
	kb2 := kbFromValues(f, "b", []string{"alpha gamma", "delta epsilon"})
	var coll, prep bytes.Buffer
	if err := TokenBlocks(kb1, kb2).WriteBinary(&coll); err != nil {
		f.Fatal(err)
	}
	if err := Prepare(kb1, 2, 1).WriteBinary(&prep); err != nil {
		f.Fatal(err)
	}
	c := imageSections(f, coll.Bytes(), collectionMagic, collectionVersion, 2)
	p := imageSections(f, prep.Bytes(), preparedMagic, preparedVersion, 3)
	f.Add(false, c[0], c[1], []byte(nil))
	f.Add(true, p[0], p[1], p[2])
	// Counts claiming far more entities, blocks, members or keys than
	// the bytes that follow could hold.
	f.Add(false, uvarints(1<<40, 1, 1<<20), uvarints(0, 1<<26), []byte(nil))
	f.Add(true, uvarints(1<<40, 0, 1<<20, 1<<20), uvarints(0, 1<<20), uvarints(0, 1<<20))
	f.Fuzz(func(t *testing.T, prepared bool, hdr, body1, body2 []byte) {
		var data []byte
		if prepared {
			data = frameImage(t, preparedMagic, preparedVersion, hdr, body1, body2)
		} else {
			data = frameImage(t, collectionMagic, collectionVersion, hdr, body1)
		}
		if got, limit := decodeAlloc(t, prepared, data), uint64(1<<20+256*len(data)); got > limit {
			t.Fatalf("decoding a %d-byte image allocated %d bytes, want at most %d", len(data), got, limit)
		}
	})
}
