package minoaner_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"minoaner"
)

// buildBenchmarkIndex generates one benchmark and builds its index plus
// the batch reference result.
func buildBenchmarkIndex(t *testing.T, name string, seed int64, scale float64) (*minoaner.Benchmark, *minoaner.Index, *minoaner.Result) {
	t.Helper()
	b, err := minoaner.GenerateBenchmark(name, seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := minoaner.DefaultConfig()
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := minoaner.Resolve(b.KB1, b.KB2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b, ix, res
}

// TestIndexQueryEqualsBatchResolve is the acceptance property: querying
// every KB2 entity through the index reproduces the batch Resolve match
// set exactly. Run per benchmark so a failure names the dataset.
func TestIndexQueryEqualsBatchResolve(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			b, ix, res := buildBenchmarkIndex(t, name, 42, 0.15)

			if got := ix.Matches(); !reflect.DeepEqual(got, res.Matches) {
				t.Fatalf("Index.Matches() diverges from batch Resolve: %d vs %d pairs", len(got), len(res.Matches))
			}

			// Query every KB2 entity one at a time and reassemble the set.
			uris := b.KB2.URIs()
			seen := make(map[minoaner.Match]bool)
			var queried []minoaner.Match
			for _, uri := range uris {
				results := ix.Query(uri)
				if len(results) != 1 {
					t.Fatalf("Query(%q) returned %d results", uri, len(results))
				}
				qr := results[0]
				if !qr.In2 {
					t.Fatalf("KB2 URI %q not found in KB2 side", uri)
				}
				for _, m := range qr.Matches {
					if !seen[m] {
						seen[m] = true
						queried = append(queried, m)
					}
				}
			}
			// The union is a permutation of the batch order (queries follow
			// KB2 iteration order, the batch is (E1,E2)-sorted); compare as
			// sorted sets.
			if !reflect.DeepEqual(sortMatches(queried), sortMatches(res.Matches)) {
				t.Fatalf("union of per-entity queries (%d) != batch matches (%d)", len(queried), len(res.Matches))
			}
		})
	}
}

// sortMatches returns a copy ordered by (URI1, URI2).
func sortMatches(in []minoaner.Match) []minoaner.Match {
	out := append([]minoaner.Match(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].URI1 != out[j].URI1 {
			return out[i].URI1 < out[j].URI1
		}
		return out[i].URI2 < out[j].URI2
	})
	return out
}

// TestKBBinaryBitIdentityBenchmarks is the acceptance property on the
// KB side: WriteBinary -> ReadKBBinary -> WriteBinary is bit-identical
// for all four benchmark KBs (both sides of each pair).
func TestKBBinaryBitIdentityBenchmarks(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			b, err := minoaner.GenerateBenchmark(name, 42, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			for side, k := range map[string]*minoaner.KB{"KB1": b.KB1, "KB2": b.KB2} {
				var first bytes.Buffer
				if err := k.WriteBinary(&first); err != nil {
					t.Fatal(err)
				}
				back, err := minoaner.ReadKBBinary(bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatalf("%s: %v", side, err)
				}
				var second bytes.Buffer
				if err := back.WriteBinary(&second); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Errorf("%s not bit-identical after reload (%d vs %d bytes)",
						side, first.Len(), second.Len())
				}
				if back.Stats() != k.Stats() {
					t.Errorf("%s stats diverge after reload", side)
				}
			}
		})
	}
}

func TestIndexQueryUnknownURI(t *testing.T) {
	_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 1, 0.1)
	results := ix.Query("http://nowhere.example.org/nothing")
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	qr := results[0]
	if qr.In1 || qr.In2 || len(qr.Matches) != 0 {
		t.Errorf("unknown URI resolved: %+v", qr)
	}
}

func TestSnapshotRoundTripBitIdentity(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			_, ix, _ := buildBenchmarkIndex(t, name, 7, 0.1)
			var first bytes.Buffer
			if err := minoaner.SaveIndex(&first, ix); err != nil {
				t.Fatal(err)
			}
			loaded, err := minoaner.LoadIndex(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := minoaner.SaveIndex(&second, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("snapshot not bit-identical after load: %d vs %d bytes", first.Len(), second.Len())
			}
			if !reflect.DeepEqual(loaded.Matches(), ix.Matches()) {
				t.Fatal("loaded index match set diverges")
			}
			if !reflect.DeepEqual(loaded.Stats(), ix.Stats()) {
				t.Fatalf("loaded index stats diverge:\n%+v\n%+v", loaded.Stats(), ix.Stats())
			}
			if loaded.Config() != ix.Config() {
				t.Fatalf("loaded config %+v != %+v", loaded.Config(), ix.Config())
			}
		})
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 3, 0.1)
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] = 'X'
		if _, err := minoaner.LoadIndex(bytes.NewReader(mut)); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[4] = 99
		if _, err := minoaner.LoadIndex(bytes.NewReader(mut)); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		// Flip one bit at several offsets; every mutation must be caught
		// (the CRCs cover all payload bytes, the frame is length-checked).
		for off := 5; off < len(data); off += len(data) / 37 {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x10
			if _, err := minoaner.LoadIndex(bytes.NewReader(mut)); err == nil {
				t.Errorf("bit flip at offset %d accepted", off)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{0, 3, 7, len(data) / 3, len(data) - 2} {
			if _, err := minoaner.LoadIndex(bytes.NewReader(data[:cut])); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
}

func TestIndexQueryReader(t *testing.T) {
	b, ix, res := buildBenchmarkIndex(t, "Restaurant", 11, 0.1)

	// Read the whole KB2 serialization back as a delta: resolving it
	// against the indexed KB1 must reproduce the batch result.
	var nt bytes.Buffer
	if err := b.WriteKB2(&nt); err != nil {
		t.Fatal(err)
	}
	delta, err := minoaner.LoadKB("delta", &nt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Matches, res.Matches) {
		t.Fatalf("QueryKB over re-read KB2 gave %d matches, batch gave %d", len(got.Matches), len(res.Matches))
	}

	// A malformed delta fails strictly, resolves leniently.
	if _, err := minoaner.LoadKB("bad", strings.NewReader("not a triple\n")); err == nil {
		t.Error("malformed delta accepted in strict mode")
	}
	bad, skipped, err := minoaner.LoadKBLenient("bad", strings.NewReader("not a triple\n"))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped lines = %d, want 1", skipped)
	}
	lenientRes, err := ix.QueryKB(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(lenientRes.Matches) != 0 {
		t.Errorf("empty lenient delta gave %d matches", len(lenientRes.Matches))
	}
}

func TestSaveLoadIndexFile(t *testing.T) {
	_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 5, 0.1)
	path := t.TempDir() + "/index.msnp"
	if err := minoaner.SaveIndexFile(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := minoaner.LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Matches(), ix.Matches()) {
		t.Error("file round trip diverges")
	}
}

// TestSaveIndexFileBareName: a bare relative path must stage its
// temporary file in the working directory, not in $TMPDIR — which may
// be another filesystem the final rename cannot cross (here: a
// directory that does not exist, so staging there fails outright).
func TestSaveIndexFileBareName(t *testing.T) {
	_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 5, 0.1)
	t.Chdir(t.TempDir())
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	if err := minoaner.SaveIndexFile("bare.msnp", ix); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "bare.msnp" {
		t.Fatalf("working directory holds %v, want only bare.msnp", entries)
	}
}
