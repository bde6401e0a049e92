package minoaner_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"minoaner"
	"minoaner/internal/binio"
)

// sampleDeltaURIs picks a spread of KB2 entity URIs for delta tests.
func sampleDeltaURIs(b *minoaner.Benchmark, n int) []string {
	uris := b.KB2.URIs()
	if n >= len(uris) {
		return uris
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, uris[i*len(uris)/n])
	}
	return out
}

// assertSameQueryResult compares everything a QueryKB Result reports
// except stage timings.
func assertSameQueryResult(t *testing.T, label string, full, fast *minoaner.Result) {
	t.Helper()
	if !reflect.DeepEqual(fast.Matches, full.Matches) {
		t.Fatalf("%s: prepared path found %d matches, full plan %d", label, len(fast.Matches), len(full.Matches))
	}
	if fast.ByName != full.ByName || fast.ByValue != full.ByValue || fast.ByRank != full.ByRank ||
		fast.DiscardedByReciprocity != full.DiscardedByReciprocity ||
		fast.NameBlocks != full.NameBlocks || fast.TokenBlocks != full.TokenBlocks ||
		fast.NameComparisons != full.NameComparisons || fast.TokenComparisons != full.TokenComparisons ||
		fast.PurgedBlocks != full.PurgedBlocks {
		t.Fatalf("%s: accounting diverges:\nfull: %+v\nfast: %+v", label, *full, *fast)
	}
}

// TestQueryKBPreparedEquivalence is the public equivalence guard: for
// every benchmark, QueryKB over the prepared substrate answers
// single-entity and batch deltas bit-identically to the full plan.
func TestQueryKBPreparedEquivalence(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			b, err := minoaner.GenerateBenchmark(name, 42, 0.12)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			uris := sampleDeltaURIs(b, 6)
			deltas := map[string][]string{
				"single": uris[:1],
				"batch":  uris,
			}
			for label, sel := range deltas {
				delta, err := b.DeltaKB("delta", sel...)
				if err != nil {
					t.Fatal(err)
				}
				full, err := ix.QueryKBFull(context.Background(), delta)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := ix.QueryKB(context.Background(), delta)
				if err != nil {
					t.Fatal(err)
				}
				assertSameQueryResult(t, label, full, fast)
			}
		})
	}
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestQueryKBDerivesSubstrateOnce: a built index derives its delta
// substrate on the first QueryKB or QueryKBStream, once however many
// race for it (run under -race), and every one of them answers like
// the full plan. A following one-entity QueryKB then only probes the
// substrate: the first round — eight queries plus the derivation they
// share — allocates over twenty times what it does (about forty on
// this fixture). A substrate derived per query, or the full plan run
// per query, would make the round about eight queries' worth.
func TestQueryKBDerivesSubstrateOnce(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "YAGO-IMDb", 42, 0.1)
	uris := sampleDeltaURIs(b, 9)
	deltas := make([]*minoaner.KB, len(uris))
	wants := make([]*minoaner.Result, len(uris))
	for i, uri := range uris {
		var err error
		if deltas[i], err = b.DeltaKB("delta", uri); err != nil {
			t.Fatal(err)
		}
		if wants[i], err = ix.QueryKBFull(context.Background(), deltas[i]); err != nil {
			t.Fatal(err)
		}
	}
	const racers = 8
	results := make([]*minoaner.Result, racers)
	streams := make([][]minoaner.ScoredPair, racers)
	first := allocated(func() {
		var wg sync.WaitGroup
		for i := range racers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if i%2 == 0 {
					results[i], err = ix.QueryKB(context.Background(), deltas[i])
				} else {
					var ch <-chan minoaner.ScoredPair
					if ch, err = ix.QueryKBStream(context.Background(), deltas[i]); err == nil {
						for sp := range ch {
							streams[i] = append(streams[i], sp)
						}
					}
				}
				if err != nil {
					t.Errorf("delta %d: %v", i, err)
				}
			}()
		}
		wg.Wait()
	})
	if t.Failed() {
		t.FailNow()
	}
	for i := range racers {
		if results[i] == nil {
			res, err := ix.QueryKB(context.Background(), deltas[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := streamMatchSet(streams[i]); !reflect.DeepEqual(got, sortMatches(res.Matches)) {
				t.Errorf("delta %d: drained first QueryKBStream (%d pairs) != QueryKB matches (%d)", i, len(got), len(res.Matches))
			}
			results[i] = res
		}
		assertSameQueryResult(t, "first round QueryKB", wants[i], results[i])
	}
	following := uint64(math.MaxUint64)
	for range 3 {
		following = min(following, allocated(func() {
			res, err := ix.QueryKB(context.Background(), deltas[racers])
			if err != nil {
				t.Fatal(err)
			}
			assertSameQueryResult(t, "following QueryKB", wants[racers], res)
		}))
	}
	if following*20 > first {
		t.Errorf("a following one-entity QueryKB allocated %d bytes, more than a twentieth of the first round's %d: the substrate was not kept", following, first)
	}
}

// withoutPrepared rewrites a snapshot image without section 8 — the
// layout SaveIndex wrote for a never-prepared index before it always
// persisted the delta substrate. The config section's closing inventory
// (a count, then one byte per section ID) drops the ID too.
func withoutPrepared(tb testing.TB, data []byte) []byte {
	tb.Helper()
	const config, prepared = 1, 8
	m, err := binio.BytesMap(data, [4]byte{'M', 'S', 'N', 'P'}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var ids []uint64
	for _, id := range m.SectionIDs() {
		if id != prepared {
			ids = append(ids, id)
		}
	}
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw([]byte("MSNP"))
	w.Uvarint(1)
	for _, id := range ids {
		payload, err := m.Section(id)
		if err != nil {
			tb.Fatal(err)
		}
		w.Section(id, func(w *binio.Writer) {
			if id != config {
				w.Raw(payload)
				return
			}
			fields := len(payload) - 2 - len(ids)
			if fields < 0 || payload[fields] != byte(len(ids)+1) {
				tb.Fatal("config section does not close with a one-byte inventory of every section")
			}
			w.Raw(payload[:fields])
			w.Int(len(ids))
			for _, id := range ids {
				w.Uvarint(id)
			}
		})
	}
	w.End()
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotCarriesPreparedSubstrate: SaveIndex persists the delta
// substrate (section 8) of every index, prepared or not. A snapshot
// without it — as written before — still opens mapped and eagerly,
// derives the substrate on its first delta query rather than at load,
// answers that query like the full plan, and re-saves to the fresh
// snapshot's bytes.
func TestSnapshotCarriesPreparedSubstrate(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 9, 0.2)
	dir := t.TempDir()
	freshPath := filepath.Join(dir, "fresh.msnp")
	if err := minoaner.SaveIndexFile(freshPath, ix); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	stripped := withoutPrepared(t, fresh)
	strippedPath := filepath.Join(dir, "stripped.msnp")
	if err := os.WriteFile(strippedPath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{freshPath: true, strippedPath: false} {
		if si, err := minoaner.InspectIndexFile(path); err != nil || si.Prepared != want {
			t.Fatalf("%s: Prepared = %v (%v), want %v", filepath.Base(path), si != nil && si.Prepared, err, want)
		}
	}

	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ix.QueryKBFull(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := minoaner.LoadIndex(bytes.NewReader(stripped))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := minoaner.OpenIndex(stripped)
	if err != nil {
		t.Fatal(err)
	}
	for label, opened := range map[string]*minoaner.Index{"loaded": loaded, "mapped": mapped} {
		query := func() {
			res, err := opened.QueryKB(context.Background(), delta)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameQueryResult(t, label, full, res)
		}
		first := allocated(query)
		following := uint64(math.MaxUint64)
		for range 3 {
			following = min(following, allocated(query))
		}
		if following*3 > first {
			t.Errorf("%s: the first delta query allocated %d bytes, a following one %d: the substrate existed before the first query", label, first, following)
		}

		resavedPath := filepath.Join(dir, label+".msnp")
		if err := minoaner.SaveIndexFile(resavedPath, opened); err != nil {
			t.Fatal(err)
		}
		resaved, err := os.ReadFile(resavedPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved, fresh) {
			t.Errorf("%s: re-save is %d bytes, not the fresh snapshot's %d", label, len(resaved), len(fresh))
		}
		if si, err := minoaner.InspectIndexFile(resavedPath); err != nil || !si.Prepared {
			t.Errorf("%s: re-save does not carry the substrate (%v)", label, err)
		}
	}
}

// TestQueryKBPreparedCancellation: cancelling the context stops a
// prepared-path query mid-probe with ctx.Err() and no partial Result.
func TestQueryKBPreparedCancellation(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Rexa-DBLP", 42, 0.1)
	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 20)...)
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: rejected before the first probe.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := ix.QueryKB(ctx, delta); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled query: res=%v err=%v", res, err)
	}

	// Cancel as the candidate scoring of the probed blocks starts.
	for _, stage := range []string{"token-blocking", "value-candidates"} {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := ix.QueryKB(ctx, delta, minoaner.WithProgress(func(p minoaner.StageProgress) {
			if p.Stage == stage && !p.Done {
				cancel()
			}
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %s: err = %v, want context.Canceled", stage, err)
		}
		if res != nil {
			t.Errorf("cancel at %s returned a partial Result", stage)
		}
	}
}

// TestIndexQueryEdgeCases covers the constant-time lookup's corners:
// no arguments, duplicate URIs in one call, and a URI naming an entity
// in both KBs.
func TestIndexQueryEdgeCases(t *testing.T) {
	t.Run("empty argument list", func(t *testing.T) {
		_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 1, 0.1)
		if results := ix.Query(); len(results) != 0 {
			t.Errorf("Query() returned %d results, want 0", len(results))
		}
	})

	t.Run("duplicate URIs in one call", func(t *testing.T) {
		b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 1, 0.1)
		uri := b.KB2.URIs()[0]
		results := ix.Query(uri, uri, uri)
		if len(results) != 3 {
			t.Fatalf("got %d results, want 3", len(results))
		}
		for i, qr := range results {
			if !reflect.DeepEqual(qr, results[0]) {
				t.Errorf("result %d diverges from result 0: %+v vs %+v", i, qr, results[0])
			}
		}
	})

	t.Run("URI present in both KBs", func(t *testing.T) {
		doc := `<http://both/x> <http://v/name> "Shared Unique Name" .
<http://both/x> <http://v/desc> "identical twin description tokens" .
`
		kb1, err := minoaner.LoadKB("a", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		kb2, err := minoaner.LoadKB("b", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := minoaner.BuildIndex(kb1, kb2, minoaner.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		results := ix.Query("http://both/x")
		if len(results) != 1 {
			t.Fatalf("got %d results", len(results))
		}
		qr := results[0]
		if !qr.In1 || !qr.In2 {
			t.Fatalf("In1=%v In2=%v, want both true", qr.In1, qr.In2)
		}
		want := minoaner.Match{URI1: "http://both/x", URI2: "http://both/x"}
		if len(qr.Matches) != 1 || qr.Matches[0] != want {
			t.Errorf("matches = %+v, want exactly the self-match", qr.Matches)
		}
	})
}

// TestDeltaScratchHygiene: the KB1-sized scratch a delta run draws from
// its epoch's pools goes back clean whatever ends the run — QueryKB
// cancelled mid-run, QueryKBStream cut short by its comparison budget,
// many queries on one epoch at once (run under -race) — so every later
// answer equals QueryKBFull's.
func TestDeltaScratchHygiene(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("YAGO-IMDb", 42, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	uris := sampleDeltaURIs(b, 8)
	var deltas []*minoaner.KB
	for _, sel := range [][]string{uris[:1], uris[3:4], uris[6:7], uris} {
		delta, err := b.DeltaKB("delta", sel...)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, delta)
	}
	wants := make([]*minoaner.Result, len(deltas))
	for i, delta := range deltas {
		if wants[i], err = ix.QueryKBFull(context.Background(), delta); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string) {
		t.Helper()
		for i, delta := range deltas {
			got, err := ix.QueryKB(context.Background(), delta)
			if err != nil {
				t.Fatal(err)
			}
			assertSameQueryResult(t, fmt.Sprintf("%s, delta %d", label, i), wants[i], got)
		}
	}
	check("first queries")

	for _, stage := range []string{"value-candidates", "neighbor-candidates", "h3-rank-aggregation"} {
		for _, delta := range deltas {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := ix.QueryKB(ctx, delta, minoaner.WithProgress(func(p minoaner.StageProgress) {
				if p.Stage == stage && !p.Done {
					cancel()
				}
			}))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel at %s: err = %v, want context.Canceled", stage, err)
			}
		}
		check("after a cancel at " + stage)
	}

	for _, budget := range []int64{1, 40, 400} {
		for _, delta := range deltas {
			drainQueryKBStream(t, ix, delta, minoaner.WithMaxComparisons(budget))
		}
		check(fmt.Sprintf("after streams cut at %d comparisons", budget))
	}

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 6 {
				i := (g + r) % len(deltas)
				if r%3 == 2 {
					ch, err := ix.QueryKBStream(context.Background(), deltas[i], minoaner.WithMaxComparisons(int64(50*r)))
					if err != nil {
						t.Error(err)
						return
					}
					for range ch {
					}
					continue
				}
				got, err := ix.QueryKB(context.Background(), deltas[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Matches, wants[i].Matches) {
					t.Errorf("concurrent query %d/%d: delta %d answers %d matches, QueryKBFull %d",
						g, r, i, len(got.Matches), len(wants[i].Matches))
				}
			}
		}()
	}
	wg.Wait()
	check("after concurrent queries")
}
