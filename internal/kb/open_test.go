package kb

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// buildSourceKB builds a KB with retained sources so the sources tier
// participates in the lazy-open tests.
func buildSourceKB(t *testing.T) *KB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder("srckb")
	if err := b.AddAll(randomTriples(rng, 40, 160)); err != nil {
		t.Fatal(err)
	}
	kb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func encode(t *testing.T, kb *KB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustEqualDecoded compares every tier of two fully decoded KBs.
func mustEqualDecoded(t *testing.T, got, want *KB) {
	t.Helper()
	if got.Name() != want.Name() || got.Len() != want.Len() || got.NumTriples() != want.NumTriples() {
		t.Fatalf("shape differs: %s/%d/%d vs %s/%d/%d",
			got.Name(), got.Len(), got.NumTriples(), want.Name(), want.Len(), want.NumTriples())
	}
	for i := 0; i < want.Len(); i++ {
		id := EntityID(i)
		a, b := want.Entity(id), got.Entity(id)
		if a.URI != b.URI || !reflect.DeepEqual(a.Attrs, b.Attrs) ||
			!reflect.DeepEqual(a.Out, b.Out) || !reflect.DeepEqual(a.In, b.In) ||
			!reflect.DeepEqual(a.Types, b.Types) || !reflect.DeepEqual(want.Tokens(id), got.Tokens(id)) {
			t.Fatalf("entity %d differs", i)
		}
	}
	if got.NumAttributes() != want.NumAttributes() || got.NumRelations() != want.NumRelations() ||
		got.AvgTokens() != want.AvgTokens() {
		t.Error("statistics differ")
	}
}

func TestOpenBinaryLazyEquivalence(t *testing.T) {
	src := buildSourceKB(t)
	data := encode(t, src)
	want := roundTrip(t, src)

	opened, err := OpenBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	// URI tier works before any materialization.
	if opened.lazy == nil {
		t.Fatal("OpenBinary decoded eagerly on a lazy-capable image")
	}
	if opened.Name() != want.Name() || opened.Len() != want.Len() || opened.NumTriples() != want.NumTriples() {
		t.Fatalf("URI-tier shape wrong: %s/%d/%d", opened.Name(), opened.Len(), opened.NumTriples())
	}
	for i := 0; i < want.Len(); i++ {
		id := EntityID(i)
		if opened.URI(id) != want.URI(id) {
			t.Fatalf("entity %d URI differs pre-materialize", i)
		}
		back, ok := opened.Lookup(want.URI(id))
		if !ok || back != id {
			t.Fatalf("Lookup(%q) = %v,%v pre-materialize", want.URI(id), back, ok)
		}
	}

	if err := opened.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := opened.MaterializeSources(); err != nil {
		t.Fatal(err)
	}
	mustEqualDecoded(t, opened, want)
	if !opened.HasSources() {
		t.Error("sources lost through lazy open")
	}
	// Re-encoding the lazily opened KB reproduces the image bit for bit.
	if !bytes.Equal(encode(t, opened), data) {
		t.Error("WriteBinary(OpenBinary(x)) != x")
	}
}

// TestOpenBinaryCorruptionSweep flips one bit at a stride of offsets
// across the image. Each mutation must either be rejected at open, be
// rejected by the first materialization that reaches the damaged
// section, or (vacuously) decode to content that re-encodes
// bit-identically to the clean image. Nothing may crash, and damage
// must never survive into a silently different KB.
func TestOpenBinaryCorruptionSweep(t *testing.T) {
	data := encode(t, buildSourceKB(t))
	step := len(data) / 53
	if step < 1 {
		step = 1
	}
	for off := 0; off < len(data); off += step {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		kb, err := OpenBinary(mut)
		if err != nil {
			continue
		}
		if err := kb.Materialize(); err != nil {
			continue
		}
		if err := kb.MaterializeSources(); err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := kb.WriteBinary(&buf); err != nil {
			continue
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("bit flip at offset %d survived to a different KB", off)
		}
	}
	// Truncations must fail cleanly too.
	for _, cut := range []int{0, 3, 7, len(data) / 3, len(data) - 2} {
		kb, err := OpenBinary(data[:cut])
		if err != nil {
			continue
		}
		if kb.Materialize() == nil && kb.MaterializeSources() == nil {
			t.Errorf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestInspectBinary(t *testing.T) {
	src := buildSourceKB(t)
	data := encode(t, src)
	info, err := InspectBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != src.Name() || info.Entities != src.Len() || info.Triples != src.NumTriples() || !info.HasSources {
		t.Errorf("InspectBinary = %+v, want %s/%d/%d/sources", info, src.Name(), src.Len(), src.NumTriples())
	}

	plain := buildTestKB(t).WithoutSources()
	info2, err := InspectBinary(encode(t, plain))
	if err != nil {
		t.Fatal(err)
	}
	if info2.Name != plain.Name() || info2.Entities != plain.Len() || info2.HasSources {
		t.Errorf("InspectBinary (no sources) = %+v", info2)
	}
}
