// Package frozenuse writes a frozen type from OUTSIDE its declaring
// package: no annotation can authorize that, so the rule must hold
// even against a mutator directive.
package frozenuse

import "minoaner/internal/analysis/testdata/src/frozenwrite"

// rewire claims mutator rights it cannot have: only the declaring
// package may patch a frozen type.
//
//minoaner:mutator golden corpus: a cross-package mutator claim must be refused
func rewire(b *frozenwrite.Box) {
	b.Items[0] = 9 // want `cannot authorize assignment through frozen frozenwrite\.Box`
}

// stomp is the plain cross-package violation.
func stomp(b *frozenwrite.Box) {
	b.Items = nil // want `assignment through field Items of frozen type frozenwrite\.Box`
}

// cloneOutside is legitimate: the copy-on-write idiom works from any
// package.
func cloneOutside(b *frozenwrite.Box) *frozenwrite.Box {
	cp := *b
	cp.Items = nil
	return &cp
}
