package minoaner_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"minoaner"
)

// ledgerFile holds the committed ledger: exact digests of what the
// index answers on the four benchmarks. A change that moves a byte of
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
// file.
var ledgerWorkers = []int{1, 8}

// TestLedger recomputes every ledger row and compares it with the
// committed file. Per benchmark it digests
//
//   - querykb-1, querykb-32: the QueryKB answer (matches and block
//     accounting, without timings) for a 1- and a 32-entity delta of
//     KB2 entities;
//   - stream-32, stream-32-max5: the NDJSON of QueryKBStream over the
//     32-entity delta, unbudgeted and at WithMaxPairs(5).
//
// A delta at least as large as KB1 (Restaurant's 32-entity one) takes
// the full path, as it does in serving.
func TestLedger(t *testing.T) {
	got := ledger{Seed: ledgerSeed, Scale: ledgerScale, Digests: map[string]string{}}
	for _, name := range minoaner.BenchmarkNames() {
		b, err := minoaner.GenerateBenchmark(name, ledgerSeed, ledgerScale)
		if err != nil {
			t.Fatal(err)
		}
		var first map[string]string
		for _, w := range ledgerWorkers {
			rows := ledgerRows(t, b, w)
			if first == nil {
				first = rows
				continue
			}
			for row, digest := range rows {
				if digest != first[row] {
					t.Errorf("%s/%s: workers %d digest %s, workers %d digest %s",
						name, row, ledgerWorkers[0], first[row], w, digest)
				}
			}
		}
		for row, digest := range first {
			got.Digests[name+"/"+row] = digest
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

// ledgerRows computes one benchmark's rows on an index built with the
// given worker count.
func ledgerRows(t *testing.T, b *minoaner.Benchmark, workers int) map[string]string {
	t.Helper()
	cfg := minoaner.DefaultConfig()
	cfg.Workers = workers
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
	return map[string]string{
		"querykb-1":      digestQueryKB(t, ix, one),
		"querykb-32":     digestQueryKB(t, ix, batch),
		"stream-32":      digestStream(t, ix, batch),
		"stream-32-max5": digestStream(t, ix, batch, minoaner.WithMaxPairs(5)),
	}
}

// digestQueryKB hashes a QueryKB answer without its stage timings.
func digestQueryKB(t *testing.T, ix *minoaner.Index, delta *minoaner.KB) string {
	t.Helper()
	res, err := ix.QueryKB(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	answer := *res
	answer.StageTimings = nil
	data, err := json.Marshal(answer)
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
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
