package minoaner_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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
// the full plan. A following one-entity QueryKB then only joins the
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

// rewriteSnapshot re-frames a snapshot image with valid checksums,
// passing every section's payload through edit; a nil result drops the
// section, and its ID from the config section's closing inventory (a
// count, then one byte per section ID).
func rewriteSnapshot(tb testing.TB, data []byte, edit func(id uint64, payload []byte) []byte) []byte {
	tb.Helper()
	const config = 1
	m, err := binio.BytesMap(data, [4]byte{'M', 'S', 'N', 'P'}, minoaner.SnapshotVersion)
	if err != nil {
		tb.Fatal(err)
	}
	all := m.SectionIDs()
	payloads := map[uint64][]byte{}
	var kept []uint64
	for _, id := range all {
		payload, err := m.Section(id)
		if err != nil {
			tb.Fatal(err)
		}
		if payloads[id] = edit(id, payload); payloads[id] != nil {
			kept = append(kept, id)
		}
	}
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw([]byte("MSNP"))
	w.Uvarint(minoaner.SnapshotVersion)
	for _, id := range kept {
		payload := payloads[id]
		w.Section(id, func(w *binio.Writer) {
			if id != config {
				w.Raw(payload)
				return
			}
			fields := len(payload) - 1 - len(all)
			if fields < 0 || payload[fields] != byte(len(all)) {
				tb.Fatal("config section does not close with a one-byte inventory of every section")
			}
			w.Raw(payload[:fields])
			w.Int(len(kept))
			for _, id := range kept {
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

// withoutPrepared rewrites a snapshot image without section 8, the
// delta substrate the blocks are derived from.
func withoutPrepared(tb testing.TB, data []byte) []byte {
	const prepared = 8
	return rewriteSnapshot(tb, data, func(id uint64, payload []byte) []byte {
		if id == prepared {
			return nil
		}
		return payload
	})
}

// TestSnapshotCarriesPreparedSubstrate: SaveIndex persists the delta
// substrate (section 8) of every index, prepared or not, and a snapshot
// without it fails to open — mapped, from a file, or eagerly — as
// corrupt: the blocks are derived from it, so it is not optional.
func TestSnapshotCarriesPreparedSubstrate(t *testing.T) {
	_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 9, 0.2)
	fresh := snapshotBytes(t, ix)
	m, err := binio.BytesMap(fresh, [4]byte{'M', 'S', 'N', 'P'}, minoaner.SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(8) {
		t.Fatal("a never-prepared index saved no section 8")
	}
	stripped := withoutPrepared(t, fresh)
	path := filepath.Join(t.TempDir(), "stripped.msnp")
	if err := os.WriteFile(path, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := minoaner.OpenIndex(stripped); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("OpenIndex: got %v, want ErrSnapshotCorrupt", err)
	}
	if ix, err := minoaner.OpenIndexFile(path); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		if err == nil {
			ix.Close()
		}
		t.Errorf("OpenIndexFile: got %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := minoaner.LoadIndex(bytes.NewReader(stripped)); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("LoadIndex: got %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotRejectsVersion1: the reader accepts format version 4
// only; a version-1 image — one that stored the block collections —
// fails on every entry point as corrupt.
func TestSnapshotRejectsVersion1(t *testing.T) { rejectsVersion(t, 1) }

// TestSnapshotRejectsVersion2: a version-2 image — one whose journal
// section was written field by field — fails on every entry point as
// corrupt.
func TestSnapshotRejectsVersion2(t *testing.T) { rejectsVersion(t, 2) }

// TestSnapshotRejectsVersion3: a version-3 image — one whose KBs led
// each entity record with its URI and whose substrate stored varint
// member lists — fails on every entry point as corrupt.
func TestSnapshotRejectsVersion3(t *testing.T) { rejectsVersion(t, 3) }

// rejectsVersion relabels a fresh snapshot as format version v and
// requires every entry point to refuse it as corrupt.
func rejectsVersion(t *testing.T, v byte) {
	t.Helper()
	_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 9, 0.1)
	data := snapshotBytes(t, ix)
	if data[4] != minoaner.SnapshotVersion {
		t.Fatalf("version byte %d, want %d", data[4], minoaner.SnapshotVersion)
	}
	data[4] = v
	path := filepath.Join(t.TempDir(), "old.msnp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := minoaner.OpenIndex(data); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("OpenIndex: got %v, want ErrSnapshotCorrupt", err)
	}
	if ix, err := minoaner.OpenIndexFile(path); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		if err == nil {
			ix.Close()
		}
		t.Errorf("OpenIndexFile: got %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := minoaner.LoadIndex(bytes.NewReader(data)); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("LoadIndex: got %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := minoaner.InspectIndexFile(path); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("InspectIndexFile: got %v, want ErrSnapshotCorrupt", err)
	}
}

// TestDerivedBlocksCheckedAgainstStats: an opened index derives B_N and
// B_T from its substrate and KB2 and checks them against the stats
// section. A stats section that disagrees, under a valid checksum,
// opens and answers small deltas (neither reads the blocks), but the
// first full-pair stream and the first Upsert — the two consumers of
// the blocks — fail as corrupt rather than answer from them.
func TestDerivedBlocksCheckedAgainstStats(t *testing.T) {
	const stats = 6
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 9, 0.2)
	data := snapshotBytes(t, ix)
	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	upsert := sweepUpsert(t, b)
	// The stats fields in order: two cutoffs, removed blocks, removed
	// comparisons, the name and token block counts, the name and token
	// comparison counts.
	for field, name := range []string{"cutoff1", "cutoff2", "removed blocks", "removed comparisons",
		"name blocks", "token blocks", "name comparisons", "token comparisons"} {
		t.Run(name, func(t *testing.T) {
			damaged := rewriteSnapshot(t, data, func(id uint64, payload []byte) []byte {
				if id != stats {
					return payload
				}
				r := binio.NewBytesReader(payload)
				var w bytes.Buffer
				enc := binio.NewWriter(&w)
				for i := 0; i < 8; i++ {
					v := r.Uvarint()
					if i == field {
						v++
					}
					enc.Uvarint(v)
				}
				if err := r.Err(); err != nil || r.More() {
					t.Fatalf("stats section does not hold 8 varints: %v", err)
				}
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
				return w.Bytes()
			})
			opened, err := minoaner.OpenIndex(damaged)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			want, err := ix.QueryKB(context.Background(), delta)
			if err != nil {
				t.Fatal(err)
			}
			got, err := opened.QueryKB(context.Background(), delta)
			if err != nil {
				t.Fatalf("QueryKB: %v", err)
			}
			assertSameQueryResult(t, "QueryKB", want, got)

			rec := httptest.NewRecorder()
			minoaner.NewServer(opened).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/resolve/stream", nil))
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), minoaner.ErrSnapshotCorrupt.Error()) {
				t.Errorf("/resolve/stream: %d %s, want a 500 naming the corruption", rec.Code, rec.Body)
			}
			if err := opened.Upsert(context.Background(), 2, upsert); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
				t.Errorf("Upsert: got %v, want ErrSnapshotCorrupt", err)
			}
			reopened, err := minoaner.OpenIndex(damaged)
			if err != nil {
				t.Fatal(err)
			}
			if err := reopened.Upsert(context.Background(), 2, upsert); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
				t.Errorf("Upsert before any stream: got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// TestQueryKBPreparedCancellation: cancelling the context stops a
// prepared-path query at a stage boundary with ctx.Err() and no partial
// Result.
func TestQueryKBPreparedCancellation(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Rexa-DBLP", 42, 0.1)
	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 20)...)
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: rejected before blocking.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := ix.QueryKB(ctx, delta); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled query: res=%v err=%v", res, err)
	}

	// Cancel as each blocking stage or the candidate scoring of the
	// joined blocks starts.
	for _, stage := range []string{"name-blocking", "token-blocking", "value-candidates"} {
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
