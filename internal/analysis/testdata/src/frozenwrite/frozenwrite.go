// Package frozenwrite is the golden corpus of the frozenwrite rule:
// Box stands in for a published epoch substrate, and each function is
// one write shape the rule must flag or must leave alone.
package frozenwrite

// Box is immutable once published.
//
//minoaner:frozen
type Box struct {
	Items []int
	index map[string]int
	count int
}

// newBox writes fields of a pointer freshly constructed in the same
// function: construction, not mutation.
func newBox(items []int) *Box {
	b := &Box{index: make(map[string]int)}
	b.Items = items
	return b
}

// clone patches by copy-on-write: direct field writes on the local
// value land on the copy, never on the shared original.
func clone(b *Box) *Box {
	cp := *b
	cp.Items = nil
	return &cp
}

// stomp writes through a caller-supplied pointer: the value may
// already be published.
func stomp(b *Box) {
	b.Items = nil        // want `assignment through field Items of frozen type frozenwrite\.Box`
	b.Items[0] = 1       // want `assignment through field Items`
	b.index["k"] = 2     // want `assignment through field index`
	delete(b.index, "k") // want `delete through field index`
	b.count++            // want `increment through field count`
}

// patch is the sanctioned in-package escape hatch.
//
//minoaner:mutator golden corpus: exercises the declaring-package mutator exemption
func patch(b *Box) {
	b.index["k"] = 3
}

// bumpInline exercises the statement-level mutator exemption.
func bumpInline(b *Box) {
	//minoaner:mutator golden corpus: statement-level exemption in the declaring package
	b.count++
}

// byValue receives a copy; writes land on it, not the original.
func byValue(b Box) int {
	b.count = 9
	return b.count
}

var _ = patch
var _ = bumpInline
var _ = byValue
