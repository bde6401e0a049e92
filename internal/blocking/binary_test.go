package blocking

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"minoaner/internal/binio"
	"minoaner/internal/datagen"
)

func collectionRoundTrip(t *testing.T, c *Collection) *Collection {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinaryData(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestCollectionBinaryRoundTrip(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"alpha beta", "gamma delta", "epsilon"})
	kb2 := kbFromValues(t, "b", []string{"alpha gamma", "delta epsilon"})
	c := TokenBlocks(kb1, kb2)
	back := collectionRoundTrip(t, c)

	if !reflect.DeepEqual(back.Blocks, c.Blocks) {
		t.Fatalf("blocks differ after round trip:\n%v\n%v", back.Blocks, c.Blocks)
	}
	n1, n2 := back.KBSizes()
	wantN1, wantN2 := c.KBSizes()
	if n1 != wantN1 || n2 != wantN2 {
		t.Errorf("KB sizes (%d,%d), want (%d,%d)", n1, n2, wantN1, wantN2)
	}
	if back.Comparisons() != c.Comparisons() {
		t.Errorf("comparisons differ")
	}
	// The rebuilt index over the reloaded collection is identical.
	if !reflect.DeepEqual(back.BuildIndex(), c.BuildIndex()) {
		t.Error("index over reloaded collection differs")
	}
}

func TestCollectionBinaryRoundTripEmpty(t *testing.T) {
	c := NewCollection(5, 7)
	back := collectionRoundTrip(t, c)
	if back.Size() != 0 {
		t.Errorf("size = %d", back.Size())
	}
	if n1, n2 := back.KBSizes(); n1 != 5 || n2 != 7 {
		t.Errorf("KB sizes (%d,%d)", n1, n2)
	}
}

// TestCollectionBinaryBitIdentityBenchmarks is the acceptance property
// on the blocking side: Write -> Read -> Write is bit-identical for the
// token and name block collections of all four benchmarks.
func TestCollectionBinaryBitIdentityBenchmarks(t *testing.T) {
	for _, g := range datagen.Generators() {
		t.Run(g.Name, func(t *testing.T) {
			ds, err := g.Build(datagen.Options{Seed: 42, Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			for name, c := range map[string]*Collection{
				"token": TokenBlocks(ds.KB1, ds.KB2),
				"name":  NameBlocks(ds.KB1, ds.KB2, 2),
			} {
				var first bytes.Buffer
				if err := c.WriteBinary(&first); err != nil {
					t.Fatal(err)
				}
				back, err := ReadBinaryData(first.Bytes())
				if err != nil {
					t.Fatalf("%s blocks: %v", name, err)
				}
				var second bytes.Buffer
				if err := back.WriteBinary(&second); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Errorf("%s blocks not bit-identical after reload (%d vs %d bytes)",
						name, first.Len(), second.Len())
				}
			}
		})
	}
}

func TestCollectionBinaryRejectsCorruption(t *testing.T) {
	kb1 := kbFromValues(t, "a", []string{"alpha beta", "gamma"})
	kb2 := kbFromValues(t, "b", []string{"alpha gamma"})
	var buf bytes.Buffer
	if err := TokenBlocks(kb1, kb2).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] = 'X'
		if _, err := ReadBinaryData(mut); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[4] = 42
		if _, err := ReadBinaryData(mut); err == nil {
			t.Error("bad version accepted")
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for off := 5; off < len(data); off++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x04
			if _, err := ReadBinaryData(mut); err == nil {
				t.Errorf("bit flip at %d accepted", off)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if _, err := ReadBinaryData(data[:cut]); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
}

// TestCollectionBinaryRejectsOutOfRange builds a hostile payload whose
// checksums are valid but whose member IDs exceed the declared KB
// sizes: referential validation must catch what the CRC cannot.
func TestCollectionBinaryRejectsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw([]byte("MBC1"))
	w.Uvarint(1)
	w.Section(1, func(e *binio.Writer) {
		e.Int(2) // n1
		e.Int(2) // n2
		e.Int(1) // one block
	})
	w.Section(2, func(e *binio.Writer) {
		e.Str("key")
		e.Int(1)
		e.Uvarint(9) // out of range for n1=2
		e.Int(1)
		e.Uvarint(0)
	})
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryData(buf.Bytes()); !errors.Is(err, errCorrupt) {
		t.Errorf("out-of-range member: err = %v", err)
	}
}
