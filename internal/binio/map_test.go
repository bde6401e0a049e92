package binio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var mapMagic = [4]byte{'T', 'M', 'A', 'P'}

// buildMapImage writes a small three-section image in the framed
// format Map consumes.
func buildMapImage(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Raw(mapMagic[:])
	w.Uvarint(3)
	w.Section(1, func(sw *Writer) { sw.Str("alpha") })
	w.Section(2, func(sw *Writer) { sw.Int(42); sw.Str("beta") })
	w.Section(9, func(sw *Writer) { sw.Raw([]byte{1, 2, 3, 4}) })
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMapDirectoryAndSections(t *testing.T) {
	data := buildMapImage(t)
	m, err := BytesMap(data, mapMagic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SectionIDs(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 9 {
		t.Errorf("SectionIDs = %v", got)
	}
	if !m.Has(2) || m.Has(7) {
		t.Error("Has answers wrong")
	}
	b, err := m.Reader(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Int(); got != 42 {
		t.Errorf("section 2 int = %d", got)
	}
	if got := b.Str(); got != "beta" {
		t.Errorf("section 2 str = %q", got)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	// Raw skips checksum verification but returns the same payload.
	raw, ok := m.Raw(1)
	if !ok {
		t.Fatal("Raw(1) missing")
	}
	sec, err := m.Section(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, sec) {
		t.Error("Raw and Section payloads differ")
	}
	if _, err := m.Section(7); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing section error = %v", err)
	}
}

func TestMapChecksumVerifiesOnAccess(t *testing.T) {
	data := buildMapImage(t)
	// Flip a payload byte of section 2 ("beta" lives near the end of
	// its payload). The directory pass must still succeed; Section(2)
	// must fail; the other sections stay readable.
	mut := append([]byte(nil), data...)
	idx := bytes.Index(mut, []byte("beta"))
	if idx < 0 {
		t.Fatal("payload marker not found")
	}
	mut[idx] ^= 0x20
	m, err := BytesMap(mut, mapMagic, 3)
	if err != nil {
		t.Fatalf("directory pass rejected payload corruption early: %v", err)
	}
	if _, err := m.Section(2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt section error = %v", err)
	}
	// The verdict is latched: asking again gives the same error.
	if _, err := m.Section(2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("second access error = %v", err)
	}
	if _, err := m.Section(1); err != nil {
		t.Errorf("sibling section rejected: %v", err)
	}
}

func TestMapRejectsStructuralDamage(t *testing.T) {
	data := buildMapImage(t)
	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] = 'X'
		if _, err := BytesMap(mut, mapMagic, 3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		if _, err := BytesMap(data, mapMagic, 2); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 3, 5, len(data) / 2, len(data) - 1} {
			if _, err := BytesMap(data[:cut], mapMagic, 3); !errors.Is(err, ErrCorrupt) {
				t.Errorf("cut %d: err = %v", cut, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), data...), 0xFF)
		if _, err := BytesMap(mut, mapMagic, 3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("duplicate section", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Raw(mapMagic[:])
		w.Uvarint(3)
		w.Section(1, func(sw *Writer) { sw.Int(1) })
		w.Section(1, func(sw *Writer) { sw.Int(2) })
		w.End()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := BytesMap(buf.Bytes(), mapMagic, 3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestOpenMapFile(t *testing.T) {
	data := buildMapImage(t)
	path := filepath.Join(t.TempDir(), "image.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMap(path, mapMagic, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Str(); got != "alpha" {
		t.Errorf("str = %q", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Error("Close not idempotent:", err)
	}
	if _, err := m.Section(1); err == nil {
		t.Error("Section on closed map succeeded")
	}
}

// TestBytesReaderSkipAndTruncation drives the cursor through values,
// the skip helper and a nested frame, then demands that truncation
// surfaces as the sticky error.
func TestBytesReaderSkipAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(77)
	w.Str("skipped")
	w.Str("kept")
	w.Embed(func(out io.Writer) error {
		nested := NewWriter(out)
		nested.Raw(mapMagic[:])
		nested.Uvarint(3)
		nested.Section(4, func(sw *Writer) { sw.Str("inner") })
		nested.End()
		return nested.Flush()
	})
	w.Float(2.5)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	r := NewBytesReader(data)
	if got := r.Uvarint(); got != 77 {
		t.Errorf("uvarint = %d", got)
	}
	r.SkipStr()
	if got := r.Str(); got != "kept" {
		t.Errorf("str = %q", got)
	}
	frame := r.Frame()
	m, err := BytesMap(frame, mapMagic, 3)
	if err != nil {
		t.Fatalf("frame does not parse on its own: %v", err)
	}
	if b, err := m.Reader(4); err != nil || b.Str() != "inner" {
		t.Errorf("nested section 4 wrong: %v", err)
	}
	if got := r.Float(); got != 2.5 {
		t.Errorf("float after frame = %v", got)
	}
	if r.More() {
		t.Error("More() after end")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(data); cut++ {
		r := NewBytesReader(data[:cut])
		r.Uvarint()
		r.SkipStr()
		r.Str()
		r.Frame()
		r.Float()
		if err := r.Err(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut %d: error = %v, want ErrCorrupt", cut, err)
		}
	}
}
