// Package deadexport is the golden corpus of the deadexport rule: each
// exported function or method is one shape the rule must flag or must
// leave alone. Its callers live in the sibling package deadexportuse.
package deadexport

// Used has a caller in another package.
func Used() int { return 1 }

// TestOnly is called from deadexport_test.go alone, and test files are
// not callers.
func TestOnly() int { return 2 } // want `deadexport\.TestOnly has no caller outside tests`

// Shape is a module interface: its methods are called through it.
type Shape interface {
	Area() float64
}

// Square implements Shape and fmt.Stringer.
type Square struct{ Side float64 }

// Area implements Shape; callers reach it through the interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer.
func (s Square) String() string { return "square" }

// Perimeter implements nothing and has no caller.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `deadexport\.Square\.Perimeter has no caller`

// Sorted implements sort.Interface: all three methods are exempt.
type Sorted []int

func (s Sorted) Len() int           { return len(s) }
func (s Sorted) Less(i, j int) bool { return s[i] < s[j] }
func (s Sorted) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Count has a Len but no Less or Swap: it is no sort.Interface, so its
// Len needs a caller like any other method.
type Count struct{ N int }

func (c Count) Len() int { return c.N } // want `deadexport\.Count\.Len has no caller`

// Pair is generic: its method is called on an instantiation, which the
// use set records by origin.
type Pair[T any] struct{ A, B T }

// First is called on a Pair[int].
func (p Pair[T]) First() T { return p.A }

type hidden struct{}

// Visible is a method of an unexported type: exempt.
func (hidden) Visible() int { return 3 }

// Kept has no caller but a justified keep.
//
//minoaner:keep golden corpus: a justified keep suppresses the finding
func Kept() int { return 4 }

// Bare has no caller and a keep without a reason: the keep
// suppresses, and its bareness is the finding.
//
// want+2 `//minoaner:keep needs a justification`
//
//minoaner:keep
func Bare() int { return 5 }

// AlsoUsed has a caller, so its keep suppresses nothing.
//
// want+2 `matches no declaration or finding`
//
//minoaner:keep golden corpus: stale, AlsoUsed has a caller
func AlsoUsed() int { return 6 }

var _ = hidden{}
