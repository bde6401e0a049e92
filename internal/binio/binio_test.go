package binio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 7)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.Str("")
	w.Str("hello, κόσμος")
	w.Float(math.Pi)
	w.Float(math.Inf(-1))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewBytesReader(buf.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+7 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools wrong")
	}
	if got := r.Str(); got != "" {
		t.Errorf("str = %q", got)
	}
	if got := r.Str(); got != "hello, κόσμος" {
		t.Errorf("str = %q", got)
	}
	if got := r.Float(); got != math.Pi {
		t.Errorf("float = %v", got)
	}
	if got := r.Float(); !math.IsInf(got, -1) {
		t.Errorf("float = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// sectionImage frames the sections fn writes as a complete image
// (magic, version, sections, end marker).
func sectionImage(t *testing.T, fn func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Raw(mapMagic[:])
	w.Uvarint(3)
	fn(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSectionsRoundTrip(t *testing.T) {
	data := sectionImage(t, func(w *Writer) {
		w.Section(1, func(sw *Writer) { sw.Str("first") })
		w.Section(7, func(sw *Writer) { sw.Int(123); sw.Str("second") })
	})
	m, err := BytesMap(data, mapMagic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ids := m.SectionIDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 7 {
		t.Fatalf("section IDs = %v", ids)
	}
	body, err := m.Reader(1)
	if err != nil || body.Str() != "first" || body.Err() != nil {
		t.Fatalf("section 1 wrong: %v", err)
	}
	body, err = m.Reader(7)
	if err != nil || body.Int() != 123 || body.Str() != "second" || body.More() {
		t.Fatalf("section 7 wrong: %v", err)
	}
}

func TestSectionChecksumDetectsFlips(t *testing.T) {
	data := sectionImage(t, func(w *Writer) {
		w.Section(3, func(sw *Writer) { sw.Str(strings.Repeat("payload ", 32)) })
	})
	// Flip one payload byte well inside the section.
	for _, off := range []int{len(data) / 2, len(data) - 6} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		m, err := BytesMap(mut, mapMagic, 3)
		if err == nil {
			_, err = m.Section(3)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: error = %v, want ErrCorrupt", off, err)
		}
	}
}

func TestSectionTruncation(t *testing.T) {
	data := sectionImage(t, func(w *Writer) {
		w.Section(2, func(sw *Writer) { sw.Str("some payload content") })
	})
	for cut := 1; cut < len(data)-1; cut += 3 {
		if _, err := BytesMap(data[:cut], mapMagic, 3); err == nil {
			// Section decoded fully despite truncation: must be impossible.
			t.Fatalf("cut at %d: truncated image accepted", cut)
		}
	}
}

func TestSectionRejectsReservedID(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(EndSection, func(sw *Writer) {})
	if err := w.Flush(); err == nil {
		t.Error("section ID 0 accepted")
	}
}

func TestReaderSticksOnFirstError(t *testing.T) {
	r := NewBytesReader(nil)
	_ = r.Uvarint()
	first := r.Err()
	if first == nil {
		t.Fatal("no error on empty input")
	}
	_ = r.Str()
	if r.Err() != first {
		t.Error("error did not stick")
	}
}

func TestBoolRejectsOther(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewBytesReader(buf.Bytes())
	_ = r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Error("bool 2 accepted")
	}
}
