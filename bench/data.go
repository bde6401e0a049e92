package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// env is what every workload is given: where the program under test is,
// where to write, and the two knobs that shape the inputs.
type env struct {
	bin    string  // the minoaner binary
	dir    string  // scratch directory of this run
	seed   int64   // reaches datagen and the seeded samples below, nothing else
	factor float64 // multiplies every workload's scale; 1 in recorded runs
}

// pair is one generated KB pair written to disk as N-Triples.
type pair struct {
	ds       *datagen.Dataset
	kb1, kb2 string            // paths; kb2 holds the whole second KB
	truth    map[string]string // second-KB URI -> its first-KB partner
	took     time.Duration     // generation and file writes
}

func writeTriples(path string, ts []rdf.Triple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rdf.WriteAll(f, ts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// generate builds the named benchmark from the seed and writes both KBs.
func generate(e *env, dataset string, scale float64) (*pair, error) {
	start := time.Now()
	g, ok := datagen.ByName(dataset)
	if !ok {
		return nil, fmt.Errorf("no generator named %q", dataset)
	}
	ds, err := g.Build(datagen.Options{Seed: e.seed, Scale: scale * e.factor})
	if err != nil {
		return nil, err
	}
	p := &pair{
		ds:    ds,
		kb1:   filepath.Join(e.dir, "kb1.nt"),
		kb2:   filepath.Join(e.dir, "kb2.nt"),
		truth: make(map[string]string, ds.GT.Len()),
	}
	for _, gp := range ds.GT.Pairs() {
		p.truth[ds.KB2.URI(gp.E2)] = ds.KB1.URI(gp.E1)
	}
	if err := writeTriples(p.kb1, ds.Triples1); err != nil {
		return nil, err
	}
	if err := writeTriples(p.kb2, ds.Triples2); err != nil {
		return nil, err
	}
	p.took = time.Since(start)
	return p, nil
}

// entity is one held-out description of the second KB, ready to post.
type entity struct {
	uri   string
	body  []byte // all its triples as N-Triples
	first []byte // its first triple alone: the "rewrite" of serve-write
}

// split is the second KB with a seeded fifth of its subjects held out:
// the index is built from base, the held-out descriptions arrive later
// as deltas and upserts.
type split struct {
	base    string   // path of the other four fifths
	indexed []string // their subject URIs, in seeded order
	held    []entity // the held-out fifth, in seeded order
}

// holdOut writes the split of p's second KB.
func holdOut(e *env, p *pair) (*split, error) {
	var order []string
	bySubject := map[string][]rdf.Triple{}
	for _, t := range p.ds.Triples2 {
		key := kb.SubjectKey(t.Subject)
		if _, seen := bySubject[key]; !seen {
			order = append(order, key)
		}
		bySubject[key] = append(bySubject[key], t)
	}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	nHeld := len(order) / 5
	heldSet := make(map[string]bool, nHeld)
	s := &split{base: filepath.Join(e.dir, "kb2_base.nt"), indexed: order[nHeld:]}
	for _, uri := range order[:nHeld] {
		heldSet[uri] = true
		ts := bySubject[uri]
		var body, first bytes.Buffer
		if err := rdf.WriteAll(&body, ts); err != nil {
			return nil, err
		}
		if err := rdf.WriteAll(&first, ts[:1]); err != nil {
			return nil, err
		}
		s.held = append(s.held, entity{uri: uri, body: body.Bytes(), first: first.Bytes()})
	}
	base := make([]rdf.Triple, 0, len(p.ds.Triples2))
	for _, t := range p.ds.Triples2 {
		if !heldSet[kb.SubjectKey(t.Subject)] {
			base = append(base, t)
		}
	}
	return s, writeTriples(s.base, base)
}

// snapshot runs `minoaner snapshot` over the pair's first KB and the
// split's base, and reports how long the child took.
func snapshot(e *env, p *pair, s *split) (string, time.Duration, error) {
	path := filepath.Join(e.dir, "index.msnp")
	r, err := runChild(false, e.bin, "snapshot", "-kb1", p.kb1, "-kb2", s.base, "-o", path)
	return path, r.wall, err
}
