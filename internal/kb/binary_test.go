package kb

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/binio"
	"minoaner/internal/rdf"
)

func roundTrip(t *testing.T, kb *KB) *KB {
	t.Helper()
	var buf bytes.Buffer
	if err := kb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestBinaryRoundTrip(t *testing.T) {
	kb := buildTestKB(t)
	back := roundTrip(t, kb)

	if back.Name() != kb.Name() {
		t.Errorf("name = %q", back.Name())
	}
	if back.Len() != kb.Len() || back.NumTriples() != kb.NumTriples() {
		t.Errorf("sizes differ: %d/%d vs %d/%d", back.Len(), back.NumTriples(), kb.Len(), kb.NumTriples())
	}
	if back.NumAttributes() != kb.NumAttributes() || back.NumRelations() != kb.NumRelations() {
		t.Errorf("schema stats differ")
	}
	if back.NumTypes() != kb.NumTypes() || back.NumVocabularies() != kb.NumVocabularies() {
		t.Errorf("type/vocab stats differ: %d/%d vs %d/%d",
			back.NumTypes(), back.NumVocabularies(), kb.NumTypes(), kb.NumVocabularies())
	}
	if back.AvgTokens() != kb.AvgTokens() {
		t.Errorf("avg tokens differ")
	}
	for i := 0; i < kb.Len(); i++ {
		id := EntityID(i)
		if back.URI(id) != kb.URI(id) {
			t.Fatalf("entity %d URI differs", i)
		}
		if !reflect.DeepEqual(back.Tokens(id), kb.Tokens(id)) {
			t.Fatalf("entity %d tokens differ", i)
		}
		a, b := kb.Entity(id), back.Entity(id)
		if !reflect.DeepEqual(a.Attrs, b.Attrs) || !reflect.DeepEqual(a.Out, b.Out) || !reflect.DeepEqual(a.In, b.In) {
			t.Fatalf("entity %d structure differs", i)
		}
	}
	// Statistics preserved.
	for _, st := range kb.AttrStats() {
		got := back.AttrStat(st.Pred)
		if got == nil || got.Importance != st.Importance || got.Entities != st.Entities || got.Distinct != st.Distinct {
			t.Errorf("attr stat %d differs", st.Pred)
		}
	}
	// EF rebuilt.
	if back.EF("diner") != kb.EF("diner") {
		t.Error("EF differs")
	}
	// Lookups work.
	if _, ok := back.Lookup("http://e/r1"); !ok {
		t.Error("lookup failed after round trip")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	kb, err := FromTriples("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, kb)
	if back.Len() != 0 || back.Name() != "empty" {
		t.Errorf("empty round trip wrong: %v", back)
	}
}

func TestBinaryNamesAndNeighborsUsable(t *testing.T) {
	kb := buildTestKB(t)
	back := roundTrip(t, kb)
	pid, ok := back.PredID("http://v/name")
	if !ok {
		t.Fatal("predicate missing after round trip")
	}
	r1, _ := back.Lookup("http://e/r1")
	if names := back.Names(r1, []int32{pid}); len(names) != 1 {
		t.Errorf("names after round trip = %v", names)
	}
	if nbrs := back.TopNeighbors(r1, 3); len(nbrs) != 1 {
		t.Errorf("neighbors after round trip = %v", nbrs)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	kb := buildTestKB(t)
	var buf bytes.Buffer
	if err := kb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := []struct {
		name string
		doc  []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XKB1rest")},
		{"truncated header", data[:3]},
		{"truncated middle", data[:len(data)/2]},
		{"truncated tail", data[:len(data)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadBinary(tc.doc); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}
}

func TestBinaryRejectsWrongVersion(t *testing.T) {
	kb := buildTestKB(t)
	var buf bytes.Buffer
	if err := kb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte (uvarint, single byte for small values)
	if _, err := ReadBinary(data); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestBinaryChecksumDetectsBitFlips flips one bit at every offset past
// the header: the section CRCs must reject every mutation (a flip that
// survived would silently corrupt cached KBs).
func TestBinaryChecksumDetectsBitFlips(t *testing.T) {
	kb := buildTestKB(t)
	var buf bytes.Buffer
	if err := kb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x08
		if _, err := ReadBinary(mut); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
}

// TestBinaryRejectsVersion1 replays the retired pre-checksum v1 wire
// format (the same primitive streams without section framing): the
// reader must refuse it as corrupt, so a stale cached .mkb from an old
// build is re-parsed rather than trusted.
func TestBinaryRejectsVersion1(t *testing.T) {
	kb := buildTestKB(t)
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw([]byte("MKB1"))
	w.Uvarint(1) // version 1
	w.Str(kb.name)
	w.Int(kb.numTriples)
	kb.writePreds(w)
	kb.writeStats(w)
	kb.writeEntities(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(buf.Bytes()); !errors.Is(err, errCorrupt) {
		t.Fatalf("ReadBinary(v1) error = %v, want %v", err, errCorrupt)
	}
	if _, err := InspectBinary(buf.Bytes()); !errors.Is(err, errCorrupt) {
		t.Fatalf("InspectBinary(v1) error = %v, want %v", err, errCorrupt)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	kb := buildTestKB(t)
	var a, b bytes.Buffer
	if err := kb.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := kb.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("binary encoding is nondeterministic")
	}
}

func TestBinarySmallerOrComparableToNT(t *testing.T) {
	// Not a strict guarantee, but the binary format should not balloon
	// relative to the source triples for a typical KB.
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		triples = append(triples,
			rdf.NewTriple(rdf.NewIRI(strings.Repeat("http://example.org/entity/", 1)+string(rune('a'+i%26))+"x"),
				rdf.NewIRI("http://example.org/ontology/name"),
				rdf.NewLiteral("some value with several tokens")))
	}
	kb, err := FromTriples("sz", triples)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := kb.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	var nt strings.Builder
	if err := rdf.WriteAll(&nt, triples); err != nil {
		t.Fatal(err)
	}
	if bin.Len() > 3*nt.Len() {
		t.Errorf("binary %dB vs N-Triples %dB — unexpectedly large", bin.Len(), nt.Len())
	}
}
