package blocking

import (
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/kb"
)

func TestUnionMismatchedSizesPanics(t *testing.T) {
	a := NewCollection(10, 20)
	b := NewCollection(10, 21)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Union over mismatched KB sizes did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "mismatched KB sizes") {
			t.Errorf("panic message = %v, want a mismatched-sizes explanation", r)
		}
	}()
	Union("A:", a, "B:", b)
}

func TestUnionDoesNotAliasInputs(t *testing.T) {
	a := NewCollection(4, 4)
	a.Blocks = []Block{{Key: "x", E1: []kb.EntityID{0, 1}, E2: []kb.EntityID{2}}}
	b := NewCollection(4, 4)
	b.Blocks = []Block{{Key: "y", E1: []kb.EntityID{3}, E2: []kb.EntityID{0, 3}}}

	u := Union("A:", a, "B:", b)
	if u.Size() != 2 {
		t.Fatalf("union size = %d, want 2", u.Size())
	}

	// Mutating the union must not write through to the inputs.
	for i := range u.Blocks {
		for j := range u.Blocks[i].E1 {
			u.Blocks[i].E1[j] = 99
		}
		for j := range u.Blocks[i].E2 {
			u.Blocks[i].E2[j] = 99
		}
	}
	if !reflect.DeepEqual(a.Blocks[0].E1, []kb.EntityID{0, 1}) || !reflect.DeepEqual(a.Blocks[0].E2, []kb.EntityID{2}) {
		t.Errorf("input a mutated through the union: %+v", a.Blocks[0])
	}
	if !reflect.DeepEqual(b.Blocks[0].E1, []kb.EntityID{3}) || !reflect.DeepEqual(b.Blocks[0].E2, []kb.EntityID{0, 3}) {
		t.Errorf("input b mutated through the union: %+v", b.Blocks[0])
	}
}

func TestUnionKeepsSizesAndIndexes(t *testing.T) {
	a := NewCollection(4, 5)
	a.Blocks = []Block{{Key: "x", E1: []kb.EntityID{3}, E2: []kb.EntityID{4}}}
	b := NewCollection(4, 5)
	b.Blocks = []Block{{Key: "y", E1: []kb.EntityID{0}, E2: []kb.EntityID{1}}}
	u := Union("A:", a, "B:", b)
	n1, n2 := u.KBSizes()
	if n1 != 4 || n2 != 5 {
		t.Fatalf("union sizes = (%d,%d), want (4,5)", n1, n2)
	}
	// BuildIndex over the union must address every member in range.
	idx := u.BuildIndex()
	if idx.ByE1.Len() != 4 || idx.ByE2.Len() != 5 {
		t.Errorf("index sized (%d,%d), want (4,5)", idx.ByE1.Len(), idx.ByE2.Len())
	}
	if len(idx.ByE1.Of(3)) != 1 || len(idx.ByE2.Of(4)) != 1 {
		t.Error("union members missing from the index")
	}
}
