package minoaner_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"minoaner"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// Label invariance: MinoanER's evidence is tokens, names and relation
// structure, never identifiers, so renaming URIs must not move an
// answer. The relabellings below rewrite the generated triples, resolve
// the rewritten KBs and map the matches back through the inverse
// renaming before comparing them with the answer on the original KBs.
//
// Four relabellings leave every answer unchanged and are asserted by
// TestLabelInvariance. A fifth, renaming subjects by an order-reversing
// bijection, moves pairs: entity IDs are sorted-URI positions, and ID
// order breaks exact similarity ties. Its lost and gained pair counts
// are ledger rows (relabel-subjects-reversed).

// labelKBs is one benchmark as triples: the generated KBs and the
// matches of a batch run over them.
type labelKBs struct {
	kb1, kb2 []rdf.Triple
	matches  []minoaner.Match
}

// newLabelKBs reads the benchmark's KBs back as triples; matches is
// the batch answer on them.
func newLabelKBs(t *testing.T, b *minoaner.Benchmark, matches []minoaner.Match) *labelKBs {
	t.Helper()
	return &labelKBs{kb1: readTriples(t, b.WriteKB1), kb2: readTriples(t, b.WriteKB2), matches: matches}
}

func readTriples(t *testing.T, write func(io.Writer) error) []rdf.Triple {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := rdf.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// resolveTriples resolves two triple sets as KBs built from N-Triples.
func resolveTriples(t *testing.T, kb1, kb2 []rdf.Triple) []minoaner.Match {
	t.Helper()
	load := func(name string, ts []rdf.Triple) *minoaner.KB {
		var buf bytes.Buffer
		if err := rdf.WriteAll(&buf, ts); err != nil {
			t.Fatal(err)
		}
		k, err := minoaner.LoadKB(name, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	res, err := minoaner.Resolve(load("kb1", kb1), load("kb2", kb2), minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

// renaming is a bijection over IRIs; IRIs it does not name keep their
// spelling.
type renaming map[string]string

func (r renaming) apply(ts []rdf.Triple, subjects, predicates bool) []rdf.Triple {
	out := make([]rdf.Triple, len(ts))
	for i, tr := range ts {
		if subjects {
			tr.Subject = r.term(tr.Subject)
			tr.Object = r.term(tr.Object)
		}
		if predicates {
			tr.Predicate = r.term(tr.Predicate)
		}
		out[i] = tr
	}
	return out
}

func (r renaming) term(x rdf.Term) rdf.Term {
	if x.Kind == rdf.IRI {
		if v, ok := r[x.Value]; ok {
			x.Value = v
		}
	}
	return x
}

func (r renaming) inverse() renaming {
	inv := make(renaming, len(r))
	for k, v := range r {
		inv[v] = k
	}
	return inv
}

// rankRenaming maps the sorted distinct keys to prefix+rank (or, with
// reverse, to prefix+(n-1-rank)), zero-padded so that string order is
// rank order.
func rankRenaming(keys []string, prefix string, reverse bool) renaming {
	keys = slices.Clone(keys)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	r := make(renaming, len(keys))
	for i, k := range keys {
		rank := i
		if reverse {
			rank = len(keys) - 1 - i
		}
		r[k] = fmt.Sprintf("%s%08d", prefix, rank)
	}
	return r
}

// subjectRenaming renames every IRI subject of ts, wherever it occurs.
func subjectRenaming(ts []rdf.Triple, prefix string, reverse bool) renaming {
	var keys []string
	for _, tr := range ts {
		if tr.Subject.Kind == rdf.IRI {
			keys = append(keys, tr.Subject.Value)
		}
	}
	return rankRenaming(keys, prefix, reverse)
}

// predicateRenaming renames every predicate of both triple sets except
// rdf:type, one bijection across the two.
func predicateRenaming(kb1, kb2 []rdf.Triple, reverse bool) renaming {
	var keys []string
	for _, ts := range [][]rdf.Triple{kb1, kb2} {
		for _, tr := range ts {
			if tr.Predicate.Value != kb.RDFType {
				keys = append(keys, tr.Predicate.Value)
			}
		}
	}
	return rankRenaming(keys, "http://relabel.example.org/p/", reverse)
}

// renamedBack maps matches found on renamed KBs back to the original
// URIs, sorted.
func renamedBack(ms []minoaner.Match, inv1, inv2 renaming) []minoaner.Match {
	out := make([]minoaner.Match, len(ms))
	for i, m := range ms {
		out[i] = minoaner.Match{URI1: inv1.name(m.URI1), URI2: inv2.name(m.URI2)}
	}
	return sortMatches(out)
}

func (r renaming) name(uri string) string {
	if v, ok := r[uri]; ok {
		return v
	}
	return uri
}

// subjectRelabel resolves the KBs with both sides' subjects renamed by
// rank (reversed or not) and returns the matches in original URIs.
func (l *labelKBs) subjectRelabel(t *testing.T, reverse bool) []minoaner.Match {
	t.Helper()
	r1 := subjectRenaming(l.kb1, "http://relabel.example.org/a/", reverse)
	r2 := subjectRenaming(l.kb2, "http://relabel.example.org/b/", reverse)
	got := resolveTriples(t, r1.apply(l.kb1, true, false), r2.apply(l.kb2, true, false))
	return renamedBack(got, r1.inverse(), r2.inverse())
}

// lostGained counts the pairs of want missing from got and the pairs of
// got missing from want.
func lostGained(want, got []minoaner.Match) (lost, gained int) {
	in := func(ms []minoaner.Match) map[minoaner.Match]bool {
		set := make(map[minoaner.Match]bool, len(ms))
		for _, m := range ms {
			set[m] = true
		}
		return set
	}
	w, g := in(want), in(got)
	for m := range w {
		if !g[m] {
			lost++
		}
	}
	for m := range g {
		if !w[m] {
			gained++
		}
	}
	return lost, gained
}

// relabelReversedRow is the ledger row of the order-reversing subject
// relabelling: the pairs it loses and gains against the batch answer
// matches.
func relabelReversedRow(t *testing.T, b *minoaner.Benchmark, matches []minoaner.Match) string {
	t.Helper()
	l := newLabelKBs(t, b, matches)
	lost, gained := lostGained(l.matches, l.subjectRelabel(t, true))
	return fmt.Sprintf("matches=%d lost=%d gained=%d", len(l.matches), lost, gained)
}

func TestLabelInvariance(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := minoaner.GenerateBenchmark(name, ledgerSeed, ledgerScale)
			if err != nil {
				t.Fatal(err)
			}
			res, err := minoaner.Resolve(b.KB1, b.KB2, minoaner.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			l := newLabelKBs(t, b, res.Matches)
			want := sortMatches(l.matches)
			check := func(relabelling string, got []minoaner.Match) {
				t.Helper()
				if !slices.Equal(got, want) {
					lost, gained := lostGained(want, got)
					t.Errorf("%s: %d of %d pairs lost, %d gained", relabelling, lost, len(want), gained)
				}
			}

			rng := rand.New(rand.NewSource(ledgerSeed))
			shuffled := func(ts []rdf.Triple) []rdf.Triple {
				ts = slices.Clone(ts)
				rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
				return ts
			}
			check("shuffled triples", renamedBack(resolveTriples(t, shuffled(l.kb1), shuffled(l.kb2)), nil, nil))

			swapped := resolveTriples(t, l.kb2, l.kb1)
			for i, m := range swapped {
				swapped[i] = minoaner.Match{URI1: m.URI2, URI2: m.URI1}
			}
			check("KB1 and KB2 swapped, then transposed", renamedBack(swapped, nil, nil))

			pr := predicateRenaming(l.kb1, l.kb2, true)
			check("predicates renamed in reversed order", renamedBack(
				resolveTriples(t, pr.apply(l.kb1, false, true), pr.apply(l.kb2, false, true)), nil, nil))

			check("subjects renamed in order", l.subjectRelabel(t, false))
		})
	}
}
