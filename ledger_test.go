package minoaner_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"minoaner"
)

// ledgerFile holds the committed ledger: exact digests of what the
// index answers on the four benchmarks, and exact counts of the work a
// batch run does. A change that moves a byte of
// an answer fails TestLedger until the file is rewritten with
//
//	go test . -run TestLedger -update
//
// so the diff of testdata/ledger.json is the evidence of the change.
const ledgerFile = "testdata/ledger.json"

// ledger is the file's layout. Digests are keyed "dataset/row".
type ledger struct {
	Seed    int64             `json:"seed"`
	Scale   float64           `json:"scale"`
	Digests map[string]string `json:"digests"`
}

const (
	ledgerSeed  = 42
	ledgerScale = 0.1
)

// ledgerWorkers are the worker counts every row is computed at; the
// digests must agree across them before they are compared with the
// file. The count is set through GOMAXPROCS under a config that leaves
// Workers at its automatic 0, so the persisted config — and with it
// the snapshot bytes — is the same at every count.
var ledgerWorkers = []int{1, 8}

// TestLedger recomputes every ledger row and compares it with the
// committed file. Per benchmark it digests
//
//   - resolve: the batch Resolve answer without timings;
//   - work, kb1-stats, kb2-stats: the batch run's exact work (|B_N|,
//     ||B_N||, |B_T|, ||B_T||, purged token blocks) and each KB's
//     Stats, written out rather than digested;
//   - relabel-subjects-reversed: the pairs lost and gained when both
//     KBs' subjects are renamed by an order-reversing bijection (see
//     label_test.go);
//   - inspect: the InspectIndexFile counts of the fresh snapshot;
//   - querykb-1, querykb-32: the QueryKB answer (matches and block
//     accounting, without timings) for a 1- and a 32-entity delta of
//     KB2 entities;
//   - stream-32, stream-32-max5: the NDJSON of QueryKBStream over the
//     32-entity delta, unbudgeted and at WithMaxPairs(5);
//   - stream-kb-weight, stream-kb-blocks and their -max5 variants: the
//     /resolve/stream body of each strategy, unbudgeted and at
//     max_pairs=5, served by an index reopened from its own snapshot;
//   - mutate-NN, save-NN: per step of the mutation script (see
//     ledgerScript), the index's Stats and Matches, and its SaveIndex
//     bytes.
//
// A delta at least as large as KB1 (Restaurant's 32-entity one) takes
// the full path, as it does in serving.
func TestLedger(t *testing.T) {
	names := minoaner.BenchmarkNames()
	benches := make([]*minoaner.Benchmark, len(names))
	for i, name := range names {
		b, err := minoaner.GenerateBenchmark(name, ledgerSeed, ledgerScale)
		if err != nil {
			t.Fatal(err)
		}
		benches[i] = b
	}
	// perWorkers[w][i] holds benchmark i's rows at ledgerWorkers[w]. The
	// benchmarks of one worker count run in parallel; the worker counts
	// run one after the other, as GOMAXPROCS is process-wide.
	perWorkers := make([][]map[string]string, len(ledgerWorkers))
	for w, workers := range ledgerWorkers {
		perWorkers[w] = make([]map[string]string, len(benches))
		prev := runtime.GOMAXPROCS(workers)
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			for i, b := range benches {
				t.Run(b.Name, func(t *testing.T) {
					t.Parallel()
					perWorkers[w][i] = ledgerRows(t, b, w == len(ledgerWorkers)-1)
				})
			}
		})
		runtime.GOMAXPROCS(prev)
	}
	if t.Failed() {
		return
	}
	got := ledger{Seed: ledgerSeed, Scale: ledgerScale, Digests: map[string]string{}}
	for i, b := range benches {
		first := perWorkers[0][i]
		for w := 1; w < len(ledgerWorkers); w++ {
			for row, digest := range perWorkers[w][i] {
				if digest != first[row] {
					t.Errorf("%s/%s: workers %d digest %s, workers %d digest %s",
						b.Name, row, ledgerWorkers[0], first[row], ledgerWorkers[w], digest)
				}
			}
		}
		for row, digest := range first {
			got.Digests[b.Name+"/"+row] = digest
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("%v (generate it with: go test . -run TestLedger -update)", err)
	}
	var want ledger
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != got.Seed || want.Scale != got.Scale {
		t.Fatalf("ledger recorded at seed %d scale %g, test runs seed %d scale %g",
			want.Seed, want.Scale, got.Seed, got.Scale)
	}
	for key, digest := range got.Digests {
		if w, ok := want.Digests[key]; !ok {
			t.Errorf("%s: row missing from %s", key, ledgerFile)
		} else if w != digest {
			t.Errorf("%s: digest %s, ledger has %s", key, digest, w)
		}
	}
	for key := range want.Digests {
		if _, ok := got.Digests[key]; !ok {
			t.Errorf("%s: ledger row no longer computed", key)
		}
	}
}

// ledgerRows computes one benchmark's rows; with reopen it also checks
// every script step against the step's reopened snapshot.
func ledgerRows(t *testing.T, b *minoaner.Benchmark, reopen bool) map[string]string {
	t.Helper()
	cfg := minoaner.DefaultConfig()
	res, err := minoaner.Resolve(b.KB1, b.KB2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := b.DeltaKB("delta", sampleDeltaURIs(b, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := b.DeltaKB("delta", sampleDeltaURIs(b, 32)...)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{
		"resolve": digestResult(t, res),
		"work": fmt.Sprintf("B_N=%d ||B_N||=%d B_T=%d ||B_T||=%d purged=%d",
			res.NameBlocks, res.NameComparisons, res.TokenBlocks, res.TokenComparisons, res.PurgedBlocks),
		"kb1-stats":                 fmt.Sprintf("%+v", b.KB1.Stats()),
		"kb2-stats":                 fmt.Sprintf("%+v", b.KB2.Stats()),
		"relabel-subjects-reversed": relabelReversedRow(t, b, res.Matches),
		"querykb-1":                 digestQueryKB(t, ix, one),
		"querykb-32":                digestQueryKB(t, ix, batch),
		"stream-32":                 digestStream(t, ix, batch),
		"stream-32-max5":            digestStream(t, ix, batch, minoaner.WithMaxPairs(5)),
	}
	snap := saveIndexBytes(t, ix)
	rows["inspect"] = digestInspect(t, snap)
	srv := minoaner.NewServer(openIndexBytes(t, snap))
	for _, strategy := range []string{"weight", "blocks"} {
		path := "/resolve/stream?strategy=" + strategy
		rows["stream-kb-"+strategy] = digest(serveBody(t, srv, path))
		rows["stream-kb-"+strategy+"-max5"] = digest(serveBody(t, srv, path+"&max_pairs=5"))
	}
	runLedgerScript(t, b, ix, batch, rows, reopen)
	return rows
}

// ledgerStep is one mutation of the script, applicable to any index in
// the state the previous step left.
type ledgerStep struct {
	name  string
	apply func(ix *minoaner.Index) error
}

// ledgerScript is the mutation script: 20 steps, the first of which is
// the freshly built index itself —
//
//	00 build                 07-18 twelve rewrites, sides alternating
//	01 side-2 rewrite              from side 2
//	02 first-sorting insert  19    Compact
//	   (side 2: every ID shifts)
//	03 mid insert (side 2)
//	04 rewrite of that insert
//	05 delete (side 1, mid-KB)
//	06 side-1 rewrite
//
// Rewrites replace an entity's description with its original one minus
// its last triple plus one perturbing literal; inserts copy another
// entity's description under a new subject.
func ledgerScript(t testing.TB, b *minoaner.Benchmark) []ledgerStep {
	t.Helper()
	docs := [3]*ntDoc{nil, docFromKB(t, b.WriteKB1), docFromKB(t, b.WriteKB2)}
	uris := [3][]string{nil, b.KB1.URIs(), b.KB2.URIs()}
	pick := func(side, num, den int) string { return uris[side][num*len(uris[side])/den] }
	upsert := func(name string, side int, lines []string) ledgerStep {
		delta, err := minoaner.LoadKB("delta", strings.NewReader(strings.Join(lines, "\n")+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		return ledgerStep{name, func(ix *minoaner.Index) error { return ix.Upsert(context.Background(), side, delta) }}
	}
	copyAs := func(subject string, lines []string) []string {
		out := make([]string, len(lines))
		for i, l := range lines {
			out[i] = subjectToken(subject) + l[len(subjectOf(l)):]
		}
		return out
	}
	perturb := func(subject string, lines []string, step int) []string {
		if len(lines) > 1 {
			lines = lines[:len(lines)-1]
		}
		return append(append([]string(nil), lines...),
			fmt.Sprintf("%s <http://ledger.example.org/extra> \"perturbed %02d\" .", subjectToken(subject), step))
	}
	rewrite := func(name string, side int, uri string, step int) ledgerStep {
		return upsert(name, side, perturb(uri, docs[side].linesOf(uri), step))
	}

	first := "http://0.ledger.example.org/first"
	if first >= uris[2][0] {
		t.Fatalf("%s: %q does not sort before KB2's first entity %q", b.Name, first, uris[2][0])
	}
	mid := pick(2, 1, 2) + "-ledger-mid"
	midLines := copyAs(mid, docs[2].linesOf(pick(2, 2, 3)))
	deleted := pick(1, 1, 2)
	steps := []ledgerStep{
		{"build", nil},
		rewrite("side-2 rewrite", 2, pick(2, 1, 3), 1),
		upsert("first-sorting insert", 2, copyAs(first, docs[2].linesOf(pick(2, 1, 5)))),
		upsert("mid insert", 2, midLines),
		upsert("rewrite of the mid insert", 2, perturb(mid, midLines, 4)),
		{"delete", func(ix *minoaner.Index) error { return ix.Delete(context.Background(), 1, deleted) }},
		rewrite("side-1 rewrite", 1, pick(1, 1, 4), 6),
	}
	for i := range 12 {
		side := 2 - i%2
		uri := pick(side, 2*i+1, 25)
		if uri == deleted {
			t.Fatalf("%s: step %02d rewrites the deleted entity", b.Name, len(steps))
		}
		steps = append(steps, rewrite(fmt.Sprintf("rewrite %d", i+1), side, uri, len(steps)))
	}
	return append(steps, ledgerStep{"compact", func(ix *minoaner.Index) error { ix.Compact(); return nil }})
}

// runLedgerScript runs the mutation script on ix, recording mutate-NN
// and save-NN. With reopen, after every step it reopens the step's
// snapshot and requires the reopened index to answer like the live
// one: the 32-entity QueryKB, the full-pair stream at max_pairs=5, and
// the next step, compared by the bytes each index saves after it.
//
// Compact is compared by Stats and Matches, not bytes: it re-seats the
// KBs on compacted term tables only on an index whose write side
// exists, and an index reopened without a mutation since has none, so
// its term tables — and snapshot bytes — keep the layout they were
// loaded with.
func runLedgerScript(t *testing.T, b *minoaner.Benchmark, ix *minoaner.Index, batch *minoaner.KB, rows map[string]string, reopen bool) {
	t.Helper()
	const streamPath = "/resolve/stream?max_pairs=5"
	var reopened *minoaner.Index
	steps := ledgerScript(t, b)
	for i, step := range steps {
		label := fmt.Sprintf("%s step %02d (%s)", b.Name, i, step.name)
		if step.apply != nil {
			if err := step.apply(ix); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		snap := saveIndexBytes(t, ix)
		rows[fmt.Sprintf("mutate-%02d", i)] = digestState(t, ix)
		rows[fmt.Sprintf("save-%02d", i)] = digest(snap)
		if !reopen {
			continue
		}

		if reopened != nil {
			if err := step.apply(reopened); err != nil {
				t.Fatalf("%s on the reopened index: %v", label, err)
			}
			if i == len(steps)-1 {
				if digestState(t, reopened) != digestState(t, ix) {
					t.Errorf("%s: the index reopened at the previous step compacts to another state", label)
				}
			} else if !bytes.Equal(saveIndexBytes(t, reopened), snap) {
				t.Errorf("%s: the index reopened at the previous step saves other bytes after it", label)
			}
		}
		reopened = openIndexBytes(t, snap)
		if digestQueryKB(t, reopened, batch) != digestQueryKB(t, ix, batch) {
			t.Errorf("%s: the reopened index answers the 32-entity QueryKB differently", label)
		}
		got := serveBody(t, minoaner.NewServer(reopened), streamPath)
		if want := serveBody(t, minoaner.NewServer(ix), streamPath); !bytes.Equal(got, want) {
			t.Errorf("%s: the reopened index streams other pairs at max_pairs=5", label)
		}
	}
}

// digestResult hashes a Result without its stage timings.
func digestResult(t *testing.T, res *minoaner.Result) string {
	t.Helper()
	answer := *res
	answer.StageTimings = nil
	data, err := json.Marshal(answer)
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
}

// digestState hashes what a mutation leaves readable: the index's
// Stats and its match set.
func digestState(t *testing.T, ix *minoaner.Index) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Stats   minoaner.IndexStats
		Matches []minoaner.Match
	}{ix.Stats(), ix.Matches()})
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
}

// digestInspect hashes the counts InspectIndexFile reports for a
// snapshot image (not its file size).
func digestInspect(t *testing.T, snap []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.msnp")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	si, err := minoaner.InspectIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(struct {
		Config                            minoaner.Config
		KB1, KB2                          minoaner.SnapshotKBInfo
		NameBlocks, TokenBlocks           int
		NameComparisons, TokenComparisons int64
		PurgedBlocks                      int
		Matches, ByName, ByValue, ByRank  int
		DiscardedByH4                     int
		Epoch                             uint64
		JournalEntries                    int
	}{si.Config, si.KB1, si.KB2, si.NameBlocks, si.TokenBlocks, si.NameComparisons, si.TokenComparisons,
		si.PurgedBlocks, si.Matches, si.ByName, si.ByValue, si.ByRank, si.DiscardedByH4, si.Epoch, si.JournalEntries})
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
}

// saveIndexBytes returns the index's snapshot image.
func saveIndexBytes(t *testing.T, ix *minoaner.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openIndexBytes opens a snapshot image lazily.
func openIndexBytes(t *testing.T, snap []byte) *minoaner.Index {
	t.Helper()
	ix, err := minoaner.OpenIndex(snap)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// serveBody GETs path from the handler and returns the 200 body.
func serveBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// digestQueryKB hashes a QueryKB answer without its stage timings.
func digestQueryKB(t *testing.T, ix *minoaner.Index, delta *minoaner.KB) string {
	t.Helper()
	res, err := ix.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	return digestResult(t, res)
}

// digestStream hashes the NDJSON of one QueryKBStream run.
func digestStream(t *testing.T, ix *minoaner.Index, delta *minoaner.KB, opts ...minoaner.StreamOption) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range drainQueryKBStream(t, ix, delta, opts...) {
		if err := enc.Encode(sp); err != nil {
			t.Fatal(err)
		}
	}
	return digest(buf.Bytes())
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
