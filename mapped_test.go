package minoaner_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"minoaner"
	"minoaner/internal/binio"
)

// deltaKB assembles a small delta from the first few KB2 entities of a
// benchmark — enough to drive the prepared delta path.
func deltaKB(t *testing.T, b *minoaner.Benchmark, n int) *minoaner.KB {
	t.Helper()
	d := docFromKB(t, b.WriteKB2)
	uris := b.KB2.URIs()
	if n > len(uris) {
		n = len(uris)
	}
	var lines []string
	for _, uri := range uris[:n] {
		lines = append(lines, d.linesOf(uri)...)
	}
	k, err := minoaner.LoadKB("delta", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// mustEqualResults compares two delta-resolution results.
func mustEqualResults(t *testing.T, label string, got, want *minoaner.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("%s: %d matches vs %d — mapped and eager answers diverge", label, len(got.Matches), len(want.Matches))
	}
}

// TestOpenIndexBitIdentity is the tentpole acceptance property: a
// mapped open answers every query bit-identically to an eager load,
// and saving the mapped index reproduces the snapshot bytes exactly.
func TestOpenIndexBitIdentity(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			b, ix, _ := buildBenchmarkIndex(t, name, 7, 0.1)
			var buf bytes.Buffer
			if err := minoaner.SaveIndex(&buf, ix); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()

			eager, err := minoaner.LoadIndex(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := minoaner.OpenIndex(data)
			if err != nil {
				t.Fatal(err)
			}
			if mapped.Config() != eager.Config() {
				t.Errorf("configs diverge: %+v vs %+v", mapped.Config(), eager.Config())
			}
			if !reflect.DeepEqual(mapped.Matches(), eager.Matches()) {
				t.Fatal("match sets diverge")
			}

			// Query sweep: every entity of both KBs, mapped vs eager.
			uris := append(b.KB1.URIs(), b.KB2.URIs()...)
			for _, uri := range uris {
				if g, w := mapped.Query(uri), eager.Query(uri); !reflect.DeepEqual(g, w) {
					t.Fatalf("Query(%q) diverges", uri)
				}
			}

			// Delta resolution exercises the lazily decoded prepared
			// substrate.
			delta := deltaKB(t, b, 5)
			got, err := mapped.QueryKB(context.Background(), delta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eager.QueryKB(context.Background(), delta)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, "QueryKB", got, want)

			// Stats force the remaining tiers; they must agree too.
			if ms, es := mapped.Stats(), eager.Stats(); ms != es {
				t.Errorf("stats diverge:\nmapped %+v\neager  %+v", ms, es)
			}

			// Save(Open(x)) == x, bit for bit.
			var second bytes.Buffer
			if err := minoaner.SaveIndex(&second, mapped); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(second.Bytes(), data) {
				t.Fatalf("snapshot not bit-identical after mapped open: %d vs %d bytes", second.Len(), len(data))
			}
		})
	}
}

// TestMappedCorruptionSweep flips one bit at a stride of offsets across
// a prepared snapshot. Because sections decode lazily, damage may
// surface at open, at the first delta query, at the first mutation
// (which derives the blocks and decodes everything else), or at save —
// but it must surface as a typed ErrSnapshotCorrupt somewhere (never a
// crash), or the decoded state must be provably unharmed (the save
// after the mutation is bit-identical to the pristine image's).
func TestMappedCorruptionSweep(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 3, 0.1)
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	delta := deltaKB(t, b, 3)
	upsert := sweepUpsert(t, b)
	ctx := context.Background()
	if err := ix.Upsert(ctx, 2, upsert); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := minoaner.SaveIndex(&want, ix); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, mut []byte, label string) {
		t.Helper()
		mustBeTyped := func(stage string, err error) {
			if !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
				t.Errorf("%s: %s error not ErrSnapshotCorrupt: %v", label, stage, err)
			}
		}
		opened, err := minoaner.OpenIndex(mut)
		if err != nil {
			mustBeTyped("open", err)
			return
		}
		if _, err := opened.QueryKB(ctx, delta); err != nil {
			mustBeTyped("query", err)
			return
		}
		if err := opened.Upsert(ctx, 2, upsert); err != nil {
			mustBeTyped("upsert", err)
			return
		}
		var out bytes.Buffer
		if err := minoaner.SaveIndex(&out, opened); err != nil {
			mustBeTyped("save", err)
			return
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Errorf("%s: survived open+query+upsert+save with different content", label)
		}
	}

	t.Run("bit flips", func(t *testing.T) {
		for off := 5; off < len(data); off += len(data) / 37 {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x10
			check(t, mut, "offset "+itoa(off))
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{0, 3, 7, len(data) / 3, len(data) - 2} {
			check(t, data[:cut:cut], "cut "+itoa(cut))
		}
	})
}

// TestMappedOpenVerifiesURIs: a mapped index serves KB URIs from the
// open on, so a damaged URI must fail the open — on both mapped entry
// points — rather than reach a Query answer.
func TestMappedOpenVerifiesURIs(t *testing.T) {
	_, ix, _ := buildBenchmarkIndex(t, "Restaurant", 3, 0.1)
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	matches := ix.Matches()
	if len(matches) == 0 {
		t.Fatal("no matches to take a KB2 URI from")
	}
	uri := matches[0].URI2
	at := bytes.Index(buf.Bytes(), []byte(uri))
	if at < 0 {
		t.Fatalf("URI %q not in the snapshot", uri)
	}
	mut := append([]byte(nil), buf.Bytes()...)
	mut[at+len(uri)-1] ^= 0x01

	if _, err := minoaner.OpenIndex(mut); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("OpenIndex: got %v, want ErrSnapshotCorrupt", err)
	}
	path := filepath.Join(t.TempDir(), "index.msnp")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := minoaner.OpenIndexFile(path)
	if err == nil {
		opened.Close()
	}
	if !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("OpenIndexFile: got %v, want ErrSnapshotCorrupt", err)
	}
}

// sweepUpsert is a side-2 rewrite: KB2's first entity with one more
// literal.
func sweepUpsert(tb testing.TB, b *minoaner.Benchmark) *minoaner.KB {
	tb.Helper()
	uri := b.KB2.URIs()[0]
	lines := append(docFromKB(tb, b.WriteKB2).linesOf(uri),
		subjectToken(uri)+` <http://sweep.example.org/extra> "sweep" .`)
	k, err := minoaner.LoadKB("upsert", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// embeddedSection returns the offset and length, within a snapshot
// image, of section inner of the MKB1 image that snapshot section outer
// embeds.
func embeddedSection(t *testing.T, data []byte, outer, inner uint64) (int, int) {
	t.Helper()
	m, err := binio.BytesMap(data, [4]byte{'M', 'S', 'N', 'P'}, minoaner.SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	img, ok := m.Raw(outer)
	if !ok {
		t.Fatalf("snapshot has no section %d", outer)
	}
	km, err := binio.BytesMap(img, [4]byte{'M', 'K', 'B', '1'}, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := km.Raw(inner)
	if !ok || len(payload) == 0 {
		t.Fatalf("KB image has no (or an empty) section %d", inner)
	}
	// The payload aliases data.
	return int(uintptr(unsafe.Pointer(&payload[0])) - uintptr(unsafe.Pointer(&data[0]))), len(payload)
}

// TestPreparedPathReadsNoFullTier: a delta smaller than KB1 is answered
// from the delta substrate (section 8) and KB1's URIs alone. Damage in
// KB1's predicates — full tier only — must leave those answers as they
// were, and still fail every path that does read the full tier.
func TestPreparedPathReadsNoFullTier(t *testing.T) {
	const snapKB1, kbPreds = 2, 2
	b, ix, _ := buildBenchmarkIndex(t, "YAGO-IMDb", 3, 0.1)
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	off, n := embeddedSection(t, data, snapKB1, kbPreds)
	mut := append([]byte(nil), data...)
	mut[off+n/2] ^= 0x10

	pristine, err := minoaner.OpenIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := minoaner.OpenIndex(mut)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := context.Background()
	for _, size := range []int{1, 32} {
		delta := deltaKB(t, b, size)
		if delta.Len() >= b.KB1.Len() {
			t.Fatalf("%d-entity delta is not smaller than KB1 (%d)", delta.Len(), b.KB1.Len())
		}
		got, err := damaged.QueryKB(ctx, delta)
		if err != nil {
			t.Fatalf("QueryKB, %d entities: %v", size, err)
		}
		want, err := pristine.QueryKB(ctx, delta)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Matches) == 0 {
			t.Fatalf("%d-entity delta matches nothing: the comparison would be vacuous", size)
		}
		mustEqualResults(t, "QueryKB "+itoa(size), got, want)
	}
	delta := deltaKB(t, b, 32)
	got, want := drainQueryKBStream(t, damaged, delta), drainQueryKBStream(t, pristine, delta)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryKBStream: %d pairs vs %d", len(got), len(want))
	}

	if _, err := damaged.QueryKBFull(ctx, delta); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("QueryKBFull: got %v, want ErrSnapshotCorrupt", err)
	}
	if err := minoaner.SaveIndex(io.Discard, damaged); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("SaveIndex: got %v, want ErrSnapshotCorrupt", err)
	}
}

// TestMappedFirstDeltaAllocs pins the cold path's object count: opening
// a snapshot and answering its first one-entity QueryKB copies a fixed
// number of slabs — URIs, the substrate's tables, the neighbor lists —
// instead of walking entities or inserting keys, so it allocates fewer
// than 1 000 objects whatever the KB size.
func TestMappedFirstDeltaAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a YAGO-IMDb x2 index")
	}
	for _, scale := range []float64{0.5, 2} {
		b, ix, _ := buildBenchmarkIndex(t, "YAGO-IMDb", 42, scale)
		data := snapshotBytes(t, ix)
		delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 1)...)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			opened, err := minoaner.OpenIndex(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := opened.QueryKB(context.Background(), delta); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 1000 {
			t.Errorf("x%g: open plus the first delta allocated %.0f objects, want fewer than 1000", scale, allocs)
		}
	}
}

// TestOpenReadsNoEntitySection: the open serves URIs from their own
// section and never reads KB1's entity records, so a byte flipped
// inside them leaves OpenIndex, Query and the first small QueryKB
// answering as the pristine image does; the damage surfaces as
// ErrSnapshotCorrupt at the first full-tier access.
func TestOpenReadsNoEntitySection(t *testing.T) {
	const snapKB1, kbEntities = 2, 4
	b, ix, _ := buildBenchmarkIndex(t, "YAGO-IMDb", 3, 0.1)
	data := snapshotBytes(t, ix)
	off, n := embeddedSection(t, data, snapKB1, kbEntities)
	mut := append([]byte(nil), data...)
	mut[off+n/2] ^= 0x10

	pristine, err := minoaner.OpenIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := minoaner.OpenIndex(mut)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	uris := append(b.KB1.URIs()[:5:5], b.KB2.URIs()[:5]...)
	if got, want := damaged.Query(uris...), pristine.Query(uris...); !reflect.DeepEqual(got, want) {
		t.Fatalf("Query answers diverge: %+v vs %+v", got, want)
	}
	delta := deltaKB(t, b, 1)
	got, err := damaged.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatalf("first QueryKB: %v", err)
	}
	want, err := pristine.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "QueryKB", got, want)
	if _, err := damaged.QueryKBFull(context.Background(), delta); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("QueryKBFull: got %v, want ErrSnapshotCorrupt", err)
	}
	if err := damaged.Close(); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Errorf("Close: got %v, want ErrSnapshotCorrupt", err)
	}
}

// FuzzOpenIndex feeds arbitrary images to the snapshot decoder that
// both OpenIndex and LoadIndex run: open, a small delta query (forcing
// the prepared substrate), a side-2 upsert (deriving the blocks from
// the substrate and checking them against the stats, then decoding
// everything else), and a save. Every stage must succeed or fail with
// an error wrapping ErrSnapshotCorrupt, never panic. Seeds, all fresh
// Restaurant x0.1 images: the built index, the same index after the
// upsert (a journal section), after a Compact as well (a compaction
// count and an empty journal), and the first without its section 8.
func FuzzOpenIndex(f *testing.F) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 3, 0.1)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	delta, err := b.DeltaKB("delta", sampleDeltaURIs(b, 3)...)
	if err != nil {
		f.Fatal(err)
	}
	upsert := sweepUpsert(f, b)
	save := func() []byte {
		var buf bytes.Buffer
		if err := minoaner.SaveIndex(&buf, ix); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := save()
	f.Add(fresh)
	if err := ix.Upsert(context.Background(), 2, upsert); err != nil {
		f.Fatal(err)
	}
	f.Add(save())
	ix.Compact()
	f.Add(save())
	f.Add(withoutPrepared(f, fresh))
	f.Fuzz(func(t *testing.T, data []byte) {
		mustBeTyped := func(stage string, err error) {
			if !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
				t.Fatalf("%s error not ErrSnapshotCorrupt: %v", stage, err)
			}
		}
		ix, err := minoaner.OpenIndex(data)
		if err != nil {
			mustBeTyped("open", err)
			return
		}
		if _, err := ix.QueryKB(context.Background(), delta); err != nil {
			mustBeTyped("query", err)
			return
		}
		if err := ix.Upsert(context.Background(), 2, upsert); err != nil {
			mustBeTyped("upsert", err)
			return
		}
		if err := minoaner.SaveIndex(io.Discard, ix); err != nil {
			mustBeTyped("save", err)
		}
	})
}

// BenchmarkMappedFirstDelta times a mapped index's cold start: each op
// opens an in-memory YAGO-IMDb x0.5 snapshot and answers one one-entity
// QueryKB, the first /delta of a freshly started server. Its B/op is
// the guard: a first delta that decodes KB1's full tier allocates
// nearly twice as much.
func BenchmarkMappedFirstDelta(b *testing.B) {
	bm, err := minoaner.GenerateBenchmark("YAGO-IMDb", 42, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(bm.KB1, bm.KB2, minoaner.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		b.Fatal(err)
	}
	delta, err := bm.DeltaKB("delta", sampleDeltaURIs(bm, 1)...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		opened, err := minoaner.OpenIndex(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opened.QueryKB(context.Background(), delta); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestMappedCloseSafety closes (munmaps) a mapped index while readers
// are mid-flight and keeps using it afterwards. If any decoded
// structure aliased the mapping, the post-Close queries would fault.
func TestMappedCloseSafety(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 5, 0.1)
	path := filepath.Join(t.TempDir(), "index.msnp")
	if err := minoaner.SaveIndexFile(path, ix); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mapped, err := minoaner.OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Fatal("OpenIndexFile did not retain the mapping")
	}
	delta := deltaKB(t, b, 3)
	uris := b.KB2.URIs()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mapped.Query(uris[(g*31+i)%len(uris)])
				if i%7 == 0 {
					if _, err := mapped.QueryKB(context.Background(), delta); err != nil {
						t.Errorf("goroutine %d: QueryKB: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	if mapped.Mapped() {
		t.Error("Mapped() still true after Close")
	}
	if err := mapped.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// The index stays fully usable off its materialized copies.
	if _, err := mapped.QueryKB(context.Background(), delta); err != nil {
		t.Fatalf("QueryKB after Close: %v", err)
	}
	var out bytes.Buffer
	if err := minoaner.SaveIndex(&out, mapped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Error("post-Close save not bit-identical to the snapshot file")
	}
}

// TestMappedMutationEquivalence applies the same mutations to a mapped
// and an eagerly loaded copy of one snapshot: the copy-on-write epoch
// machinery must give bit-identical state on both.
func TestMappedMutationEquivalence(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 19, 0.12)
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	eager, err := minoaner.LoadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := minoaner.OpenIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mutable() {
		t.Fatal("snapshot lost its sources through mapped open")
	}

	d2 := docFromKB(t, b.WriteKB2)
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 5; round++ {
		// Drive both indexes through the same scripted mutation by
		// cloning the RNG stream: run the step against the eager index,
		// then replay its journal entry onto the mapped one.
		before := eager.Epoch()
		mutationStep(t, rng, eager, 2, d2, eager.KB2(), round)
		if eager.Epoch() == before {
			continue
		}
		tail, err := eager.JournalSince(before)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mapped.Replay(context.Background(), tail.Entries); err != nil {
			t.Fatalf("round %d: replay onto mapped: %v", round, err)
		}
	}
	if eager.Epoch() == 0 {
		t.Fatal("storm produced no mutations")
	}
	if mapped.Epoch() != eager.Epoch() {
		t.Fatalf("epochs diverge: mapped %d, eager %d", mapped.Epoch(), eager.Epoch())
	}
	if !reflect.DeepEqual(mapped.Matches(), eager.Matches()) {
		t.Fatal("matches diverge after identical mutations")
	}
	if !bytes.Equal(snapshotBytes(t, mapped), snapshotBytes(t, eager)) {
		t.Fatal("snapshots not bit-identical after identical mutations")
	}
}

// TestInspectIndexFile checks the O(header) inspection against the
// fully loaded index it summarizes.
func TestInspectIndexFile(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 11, 0.1)
	d2 := docFromKB(t, b.WriteKB2)
	rng := rand.New(rand.NewSource(41))
	for round := 0; ix.Epoch() < 2 && round < 12; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
	}
	path := filepath.Join(t.TempDir(), "index.msnp")
	if err := minoaner.SaveIndexFile(path, ix); err != nil {
		t.Fatal(err)
	}

	si, err := minoaner.InspectIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if si.Matches != st.Matches || si.ByName != st.ByName || si.ByValue != st.ByValue || si.ByRank != st.ByRank {
		t.Errorf("match counts: %+v vs stats %+v", si, st)
	}
	if si.DiscardedByH4 != st.DiscardedByReciprocity {
		t.Errorf("DiscardedByH4 = %d, want %d", si.DiscardedByH4, st.DiscardedByReciprocity)
	}
	if si.NameBlocks != st.NameBlocks || si.TokenBlocks != st.TokenBlocks ||
		si.NameComparisons != st.NameComparisons || si.TokenComparisons != st.TokenComparisons ||
		si.PurgedBlocks != st.PurgedBlocks {
		t.Errorf("block stats diverge: %+v vs %+v", si, st)
	}
	if si.Config != ix.Config() {
		t.Errorf("config = %+v, want %+v", si.Config, ix.Config())
	}
	if si.KB1.Name != ix.KB1().Name() || si.KB1.Entities != ix.KB1().Len() ||
		si.KB2.Name != ix.KB2().Name() || si.KB2.Entities != ix.KB2().Len() {
		t.Errorf("KB summaries diverge: %+v / %+v", si.KB1, si.KB2)
	}
	if si.Version != 4 {
		t.Errorf("format version %d, want 4", si.Version)
	}
	if si.Epoch != ix.Epoch() || si.JournalEntries != len(ix.Journal()) {
		t.Errorf("journal summary: epoch %d/%d entries %d/%d",
			si.Epoch, ix.Epoch(), si.JournalEntries, len(ix.Journal()))
	}
	if !si.Mutable() {
		t.Error("sources-bearing snapshot reported read-only")
	}
	if fi, err := os.Stat(path); err != nil || si.Size != fi.Size() {
		t.Errorf("Size = %d, stat %v/%v", si.Size, fi, err)
	}
}

// TestReplicaSnapshotPath: bootstrap lands the primary's snapshot on
// disk at the configured path and maps it, so a replica restart (or a
// human) can open the file directly.
func TestReplicaSnapshotPath(t *testing.T) {
	_, primary, srv, _, _ := newMutableServer(t)
	path := filepath.Join(t.TempDir(), "replica.msnp")
	rep, err := minoaner.NewReplica(srv.URL,
		minoaner.WithReplicaClient(srv.Client()),
		minoaner.WithReplicaSnapshotPath(path),
		minoaner.WithReplicaPoll(2*time.Millisecond),
		minoaner.WithReplicaJitterSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !rep.Index().Mapped() {
		t.Error("bootstrap did not map the landed snapshot")
	}
	if !reflect.DeepEqual(rep.Index().Matches(), primary.Matches()) {
		t.Fatal("bootstrapped replica diverges from primary")
	}
	// The landed file is a complete, openable snapshot.
	landed, err := minoaner.OpenIndexFile(path)
	if err != nil {
		t.Fatalf("opening landed snapshot: %v", err)
	}
	defer landed.Close()
	if !reflect.DeepEqual(landed.Matches(), primary.Matches()) {
		t.Fatal("landed snapshot diverges from primary")
	}
	if !bytes.Equal(snapshotBytes(t, landed), snapshotBytes(t, primary)) {
		t.Fatal("landed snapshot not bit-identical to the primary")
	}

	// The default (no path) bootstrap streams to an unlinked temp file
	// and still ends up mapped.
	rep2, err := minoaner.NewReplica(srv.URL,
		minoaner.WithReplicaClient(srv.Client()),
		minoaner.WithReplicaJitterSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep2.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep2.Index().Matches(), primary.Matches()) {
		t.Fatal("temp-file bootstrap diverges from primary")
	}
}
