package minoaner_test

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"minoaner"
)

// oneEntityBody is what /delta, /upsert and journal replay hand LoadKB
// thousands of times a second: one description.
const oneEntityBody = `<http://e/movie/42> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://v/Movie> .
<http://e/movie/42> <http://v/title> "The Long Goodbye"@en .
<http://e/movie/42> <http://v/year> "1973"^^<http://www.w3.org/2001/XMLSchema#gYear> .
<http://e/movie/42> <http://v/director> <http://e/person/7> .
<http://e/movie/42> <http://v/starring> <http://e/person/8> .
<http://e/movie/42> <http://v/starring> <http://e/person/9> .
<http://e/movie/42> <http://v/plot> "A private eye helps a friend out of a jam and is implicated in his wife's murder." .
<http://e/movie/42> <http://v/runtime> "112" .
`

// goroutineWatch records the largest goroutine count seen while the
// loader was reading.
type goroutineWatch struct {
	r    io.Reader
	peak int
}

func (g *goroutineWatch) Read(p []byte) (int, error) {
	g.peak = max(g.peak, runtime.NumGoroutine())
	return g.r.Read(p)
}

// TestLoadKBSmallBodyStaysCheap guards the small-input end of the
// block-parallel ingest. The line-at-a-time loader it replaced spent
// 83 345 bytes on this body (PR 14, 64 KB of it a bufio buffer); an
// ingest that sets up its block machinery — a block-sized buffer, a
// worker pool — before knowing the input is one block costs several
// times that on every request.
func TestLoadKBSmallBodyStaysCheap(t *testing.T) {
	const parentBytes = 83345
	const runs = 100
	load := func(r io.Reader) {
		k, err := minoaner.LoadKB("delta", r)
		if err != nil {
			t.Fatal(err)
		}
		if k.Stats().Entities != 1 {
			t.Fatalf("loaded %d entities, want 1", k.Stats().Entities)
		}
	}
	load(strings.NewReader(oneEntityBody))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load(strings.NewReader(oneEntityBody))
	}
	runtime.ReadMemStats(&after)
	if perLoad := (after.TotalAlloc - before.TotalAlloc) / runs; perLoad > parentBytes {
		t.Errorf("LoadKB of a one-entity body allocates %d bytes, more than the %d of the serial loader", perLoad, parentBytes)
	}

	base := runtime.NumGoroutine()
	w := &goroutineWatch{r: strings.NewReader(oneEntityBody)}
	load(w)
	if w.peak > base || runtime.NumGoroutine() > base {
		t.Errorf("LoadKB of a one-entity body ran beside %d goroutine(s) of its own", max(w.peak, runtime.NumGoroutine())-base)
	}
}
