// Package deadexportuse is the caller side of the deadexport corpus.
package deadexportuse

import (
	"fmt"

	"minoaner/internal/analysis/testdata/src/deadexport"
)

func use() string {
	var s deadexport.Shape = deadexport.Square{Side: 2}
	p := deadexport.Pair[int]{A: 1, B: 2}
	return fmt.Sprint(deadexport.Used(), deadexport.AlsoUsed(), s.Area(), s, p.First())
}

var _ = use
