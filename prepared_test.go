package minoaner_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"minoaner"
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
			ix.Prepare()
			if !ix.Prepared() {
				t.Fatal("Prepare did not build the substrate")
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

// TestQueryKBFallsBackUnprepared: without Prepare, QueryKB must run
// the full plan and still answer correctly.
func TestQueryKBFallsBackUnprepared(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 42, 0.1)
	if ix.Prepared() {
		t.Fatal("fresh index unexpectedly prepared")
	}
	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ix.QueryKBFull(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	assertSameQueryResult(t, "unprepared fallback", full, res)

	// Preparing switches QueryKB to the prepared path, which agrees too.
	ix.Prepare()
	if !ix.Prepared() {
		t.Error("Prepare did not prepare the index")
	}
	fast, err := ix.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	assertSameQueryResult(t, "fast", full, fast)
}

// TestSnapshotCarriesPreparedSubstrate: a prepared index snapshot
// round-trips bit-for-bit including the substrate, and the loaded index
// serves the prepared path without re-freezing.
func TestSnapshotCarriesPreparedSubstrate(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 9, 0.1)
	ix.Prepare()

	var first bytes.Buffer
	if err := minoaner.SaveIndex(&first, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := minoaner.LoadIndex(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Prepared() {
		t.Fatal("loaded index lost the prepared substrate")
	}
	var second bytes.Buffer
	if err := minoaner.SaveIndex(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("prepared snapshot not bit-identical after load: %d vs %d bytes", first.Len(), second.Len())
	}

	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := loaded.QueryKBFull(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := loaded.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	assertSameQueryResult(t, "loaded prepared", full, fast)

	// Back-compat: a snapshot saved without the substrate (the pre-
	// section-8 layout) still loads, reports unprepared, and prepares on
	// demand.
	_, bare, _ := buildBenchmarkIndex(t, "Restaurant", 9, 0.1)
	var old bytes.Buffer
	if err := minoaner.SaveIndex(&old, bare); err != nil {
		t.Fatal(err)
	}
	reloaded, err := minoaner.LoadIndex(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Prepared() {
		t.Fatal("substrate-free snapshot claims to be prepared")
	}
	reloaded.Prepare()
	res, err := reloaded.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	assertSameQueryResult(t, "on-demand prepare after old snapshot", full, res)
}

// TestQueryKBPreparedCancellation: cancelling the context stops a
// prepared-path query mid-probe with ctx.Err() and no partial Result.
func TestQueryKBPreparedCancellation(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Rexa-DBLP", 42, 0.1)
	ix.Prepare()
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
