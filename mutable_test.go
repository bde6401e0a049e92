package minoaner_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"minoaner"
)

// ntDoc is an N-Triples document manipulated at entity granularity —
// the triple-level reference a mutable index is measured against.
type ntDoc struct {
	lines []string
}

func docFromKB(tb testing.TB, write func(io.Writer) error) *ntDoc {
	tb.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		tb.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	return &ntDoc{lines: lines}
}

// subjectOf extracts the subject token of one N-Triples line.
func subjectOf(line string) string {
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return line
	}
	return line[:i]
}

// subjectToken renders a URI as its N-Triples subject token.
func subjectToken(uri string) string {
	if strings.HasPrefix(uri, "_:") {
		return uri
	}
	return "<" + uri + ">"
}

func (d *ntDoc) linesOf(uri string) []string {
	tok := subjectToken(uri)
	var out []string
	for _, l := range d.lines {
		if subjectOf(l) == tok {
			out = append(out, l)
		}
	}
	return out
}

// remove drops all triples of the given subjects.
func (d *ntDoc) remove(uris ...string) {
	drop := map[string]bool{}
	for _, u := range uris {
		drop[subjectToken(u)] = true
	}
	var kept []string
	for _, l := range d.lines {
		if !drop[subjectOf(l)] {
			kept = append(kept, l)
		}
	}
	d.lines = kept
}

// upsert replaces the subjects covered by delta with delta's lines.
func (d *ntDoc) upsert(delta []string) {
	subjects := map[string]bool{}
	for _, l := range delta {
		subjects[subjectOf(l)] = true
	}
	var kept []string
	for _, l := range d.lines {
		if !subjects[subjectOf(l)] {
			kept = append(kept, l)
		}
	}
	d.lines = append(kept, delta...)
}

func (d *ntDoc) text() string { return strings.Join(d.lines, "\n") + "\n" }

func (d *ntDoc) kb(t *testing.T, name string) *minoaner.KB {
	t.Helper()
	k, err := minoaner.LoadKB(name, strings.NewReader(d.text()))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// mutationStep applies one random mutation to the doc and mirrors it
// on the index. Returns false when the roll produced a no-op.
func mutationStep(t *testing.T, rng *rand.Rand, ix *minoaner.Index, side int, d *ntDoc, cur *minoaner.KB, round int) bool {
	t.Helper()
	uris := cur.URIs()
	switch rng.Intn(5) {
	case 0: // delete 1-2 entities
		del := []string{uris[rng.Intn(len(uris))]}
		if rng.Intn(2) == 0 {
			del = append(del, uris[rng.Intn(len(uris))])
		}
		if err := ix.Delete(context.Background(), side, del...); err != nil {
			t.Fatalf("round %d: delete: %v", round, err)
		}
		d.remove(del...)
	case 1: // insert a brand-new entity linking to an existing one
		subj := fmt.Sprintf("<http://mut/side%d/new-%d-%d>", side, round, rng.Intn(1000))
		delta := []string{
			fmt.Sprintf("%s <http://mut/name> \"fresh description %d omega\" .", subj, round),
			fmt.Sprintf("%s <http://mut/link> %s .", subj, subjectToken(uris[rng.Intn(len(uris))])),
		}
		deltaKB, err := minoaner.LoadKB("delta", strings.NewReader(strings.Join(delta, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Upsert(context.Background(), side, deltaKB); err != nil {
			t.Fatalf("round %d: insert: %v", round, err)
		}
		d.upsert(delta)
	default: // replace an existing entity with a perturbed description
		uri := uris[rng.Intn(len(uris))]
		delta := d.linesOf(uri)
		if len(delta) == 0 {
			return false
		}
		if rng.Intn(2) == 0 && len(delta) > 1 {
			delta = delta[:len(delta)-1] // drop one triple
		}
		delta = append(delta, fmt.Sprintf("%s <http://mut/extra> \"perturb %d %d\" .",
			subjectToken(uri), round, rng.Intn(3)))
		deltaKB, err := minoaner.LoadKB("delta", strings.NewReader(strings.Join(delta, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Upsert(context.Background(), side, deltaKB); err != nil {
			t.Fatalf("round %d: upsert: %v", round, err)
		}
		d.upsert(delta)
	}
	return true
}

// assertRebuildEquivalent compares the mutated index against a
// from-scratch BuildIndex over the mutated documents: matches, stats,
// point queries, and the delta path.
func assertRebuildEquivalent(t *testing.T, label string, ix *minoaner.Index, d1, d2 *ntDoc, cfg minoaner.Config) {
	t.Helper()
	kb1, kb2 := d1.kb(t, "kb1"), d2.kb(t, "kb2")
	fresh, err := minoaner.BuildIndex(kb1, kb2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Matches(), fresh.Matches(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: matches diverge from rebuild (%d vs %d)", label, len(got), len(want))
	}
	gs, ws := ix.Stats(), fresh.Stats()
	ws.Epoch, ws.JournalLength = gs.Epoch, gs.JournalLength // provenance differs by design
	if gs != ws {
		t.Fatalf("%s: stats diverge from rebuild:\n got %+v\nwant %+v", label, gs, ws)
	}

	// Point queries over a sample of both KBs' URIs.
	var sample []string
	for _, uris := range [][]string{kb1.URIs(), kb2.URIs()} {
		for i := 0; i < len(uris); i += 1 + len(uris)/17 {
			sample = append(sample, uris[i])
		}
	}
	if !reflect.DeepEqual(ix.Query(sample...), fresh.Query(sample...)) {
		t.Fatalf("%s: Query diverges from rebuild", label)
	}

	// The delta path joins the patched substrate; the rebuild freezes
	// its own. Both must produce identical matches.
	uris2 := kb2.URIs()
	deltaKB, err := minoaner.LoadKB("qdelta", strings.NewReader(strings.Join(d2.linesOf(uris2[len(uris2)/2]), "\n")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryKB(context.Background(), deltaKB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.QueryKB(context.Background(), deltaKB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("%s: QueryKB diverges from rebuild", label)
	}
}

// TestMutableIndexRebuildEquivalence is the headline invariant: after
// any sequence of upserts and deletes (on either side), the mutated
// index answers bit-identically to a from-scratch BuildIndex over the
// mutated KBs — on all four benchmarks, at workers 1/2/4/8.
func TestMutableIndexRebuildEquivalence(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				workers := workers
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					b, err := minoaner.GenerateBenchmark(name, 42, 0.08)
					if err != nil {
						t.Fatal(err)
					}
					cfg := minoaner.DefaultConfig()
					cfg.Workers = workers
					ix, err := minoaner.BuildIndex(b.KB1, b.KB2, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !ix.Mutable() {
						t.Fatal("freshly built index not mutable")
					}
					d1 := docFromKB(t, b.WriteKB1)
					d2 := docFromKB(t, b.WriteKB2)

					rng := rand.New(rand.NewSource(int64(workers) * 77))
					applied := 0
					for round := 0; applied < 6 && round < 20; round++ {
						side, doc, cur := 2, d2, ix.KB2()
						if rng.Intn(3) == 0 {
							side, doc, cur = 1, d1, ix.KB1()
						}
						if mutationStep(t, rng, ix, side, doc, cur, round) {
							applied++
						}
					}
					if got := ix.Epoch(); got < uint64(applied) {
						t.Fatalf("epoch %d after %d mutations", got, applied)
					}
					if got := len(ix.Journal()); got != int(ix.Epoch()) {
						t.Fatalf("journal length %d, epoch %d", got, ix.Epoch())
					}
					assertRebuildEquivalent(t, fmt.Sprintf("%s workers=%d", name, workers), ix, d1, d2, cfg)

					// Compact keeps the resolution state intact.
					ix.Compact()
					if len(ix.Journal()) != 0 {
						t.Fatal("compact left journal entries")
					}
					assertRebuildEquivalent(t, "post-compact", ix, d1, d2, cfg)
				})
			}
		})
	}
}

// TestMutableIndexConcurrentReaders hammers one mutable index with 16
// reader goroutines while a mutation storm runs — the lock-free epoch
// swap must never tear a response (run under -race).
func TestMutableIndexConcurrentReaders(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := minoaner.DefaultConfig()
	cfg.Workers = 2
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2 := docFromKB(t, b.WriteKB2)
	uris2 := ix.KB2().URIs()
	deltaKB, err := minoaner.LoadKB("qdelta", strings.NewReader(strings.Join(d2.linesOf(uris2[0]), "\n")))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					res := ix.Query(uris2[(g*31+i)%len(uris2)])
					if len(res) != 1 {
						t.Errorf("query returned %d results", len(res))
						return
					}
				case 1:
					if _, err := ix.QueryKB(context.Background(), deltaKB); err != nil {
						t.Errorf("QueryKB: %v", err)
						return
					}
				default:
					_ = ix.Stats()
					_ = ix.Matches()
				}
			}
		}(g)
	}

	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 12; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
		if round == 6 {
			ix.Compact()
		}
	}
	close(stop)
	wg.Wait()
}

// TestMutableIndexSnapshotRoundTrip: a mutated index persists — the
// snapshot carries the mutated state plus the journal, reloads
// bit-identically, and the reloaded index keeps accepting mutations.
func TestMutableIndexSnapshotRoundTrip(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 23, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := minoaner.DefaultConfig()
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1 := docFromKB(t, b.WriteKB1)
	d2 := docFromKB(t, b.WriteKB2)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 4; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
	}

	var first bytes.Buffer
	if err := minoaner.SaveIndex(&first, ix); err != nil {
		t.Fatal(err)
	}
	back, err := minoaner.LoadIndex(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch() != ix.Epoch() {
		t.Fatalf("epoch %d after reload, want %d", back.Epoch(), ix.Epoch())
	}
	if !reflect.DeepEqual(back.Journal(), ix.Journal()) {
		t.Fatal("journal diverges after reload")
	}
	if !reflect.DeepEqual(back.Matches(), ix.Matches()) {
		t.Fatal("matches diverge after reload")
	}
	if !back.Mutable() {
		t.Fatal("reloaded index lost mutability")
	}
	var second bytes.Buffer
	if err := minoaner.SaveIndex(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot not bit-identical after reload (%d vs %d bytes)", first.Len(), second.Len())
	}

	// The reloaded index absorbs further mutations (priming its
	// substrate from the snapshot's collections) and stays
	// rebuild-equivalent.
	for round := 4; round < 7; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
	}
	// Replay the same pseudo-random steps on the reloaded index.
	rng2 := rand.New(rand.NewSource(9))
	d2b := docFromKB(t, b.WriteKB2)
	for round := 0; round < 4; round++ { // fast-forward the stream
		mutationStepNoIndex(t, rng2, d2b, round)
	}
	for round := 4; round < 7; round++ {
		mutationStep(t, rng2, back, 2, d2b, back.KB2(), round)
	}
	if !reflect.DeepEqual(back.Matches(), ix.Matches()) {
		t.Fatal("reloaded index diverges from the original after further mutations")
	}
	assertRebuildEquivalent(t, "reloaded", back, d1, d2, cfg)
}

// mutationStepNoIndex replays mutationStep's randomness against the
// doc only (to fast-forward a deterministic stream).
func mutationStepNoIndex(t *testing.T, rng *rand.Rand, d *ntDoc, round int) {
	t.Helper()
	k := d.kb(t, "tmp")
	uris := k.URIs()
	switch rng.Intn(5) {
	case 0:
		del := []string{uris[rng.Intn(len(uris))]}
		if rng.Intn(2) == 0 {
			del = append(del, uris[rng.Intn(len(uris))])
		}
		d.remove(del...)
	case 1:
		subj := fmt.Sprintf("<http://mut/side2/new-%d-%d>", round, rng.Intn(1000))
		d.upsert([]string{
			fmt.Sprintf("%s <http://mut/name> \"fresh description %d omega\" .", subj, round),
			fmt.Sprintf("%s <http://mut/link> %s .", subj, subjectToken(uris[rng.Intn(len(uris))])),
		})
	default:
		uri := uris[rng.Intn(len(uris))]
		delta := d.linesOf(uri)
		if len(delta) == 0 {
			return
		}
		if rng.Intn(2) == 0 && len(delta) > 1 {
			delta = delta[:len(delta)-1]
		}
		delta = append(delta, fmt.Sprintf("%s <http://mut/extra> \"perturb %d %d\" .",
			subjectToken(uri), round, rng.Intn(3)))
		d.upsert(delta)
	}
}

// TestUpsertIdenticalIsNoOp: re-upserting a description identical to
// the indexed one must not bump the epoch or grow the journal —
// idempotent re-sync traffic is free.
func TestUpsertIdenticalIsNoOp(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 13, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2 := docFromKB(t, b.WriteKB2)
	uri := ix.KB2().URIs()[3]
	delta, err := minoaner.LoadKB("delta", strings.NewReader(strings.Join(d2.linesOf(uri), "\n")))
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Matches()
	if err := ix.Upsert(context.Background(), 2, delta); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() != 0 || len(ix.Journal()) != 0 {
		t.Fatalf("identical upsert bumped epoch to %d (journal %d)", ix.Epoch(), len(ix.Journal()))
	}
	if !reflect.DeepEqual(ix.Matches(), before) {
		t.Fatal("identical upsert changed matches")
	}
}

// TestImmutableIndexRejectsMutations: stripped KBs build a read-only
// index that rejects Upsert/Delete with ErrNotMutable (the situation
// of pre-mutability snapshots).
func TestImmutableIndexRejectsMutations(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1.WithoutSources(), b.KB2.WithoutSources(), minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Mutable() {
		t.Fatal("index over stripped KBs claims mutability")
	}
	if err := ix.Delete(context.Background(), 2, b.KB2.URIs()[0]); !errors.Is(err, minoaner.ErrNotMutable) {
		t.Fatalf("Delete err = %v, want ErrNotMutable", err)
	}

	// Its snapshot (the pre-mutability layout, no sources, no journal)
	// still round-trips and loads as read-only.
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	back, err := minoaner.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Mutable() {
		t.Fatal("reloaded stripped index claims mutability")
	}
	if !reflect.DeepEqual(back.Matches(), ix.Matches()) {
		t.Fatal("matches diverge after reload")
	}
}

// TestMutableSnapshotCorruption: the journal section (and everything
// else) is checksummed — bit flips and truncations anywhere in a
// mutated snapshot are rejected, including flips on the optional
// sections' ID bytes (caught by the config section's inventory).
func TestMutableSnapshotCorruption(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2 := docFromKB(t, b.WriteKB2)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 3; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
	}
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	flip := func(off int) {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		if _, err := minoaner.LoadIndex(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
	// Sample the whole file, then sweep the tail densely — the journal
	// section sits at the end, so every byte of it (payload, checksum,
	// and its section ID) gets hit.
	for off := 5; off < len(data); off += 1 + len(data)/223 {
		flip(off)
	}
	tail := len(data) - 2048
	if tail < 5 {
		tail = 5
	}
	for off := tail; off < len(data); off++ {
		flip(off)
	}
	for _, cut := range []int{0, 4, 9, len(data) / 2, len(data) - 3} {
		if _, err := minoaner.LoadIndex(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
