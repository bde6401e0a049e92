package minoaner_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"minoaner"
)

// snapshotBytes serializes an index (the replica-convergence oracle:
// bit-identical snapshots mean bit-identical state).
func snapshotBytes(t *testing.T, ix *minoaner.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertConverged asserts the replica is bit-for-bit the primary:
// matches, stats, and the saved snapshot all identical.
func assertConverged(t *testing.T, label string, primary, replica *minoaner.Index) {
	t.Helper()
	if pe, re := primary.Epoch(), replica.Epoch(); pe != re {
		t.Fatalf("%s: epochs diverge: primary %d, replica %d", label, pe, re)
	}
	if !reflect.DeepEqual(primary.Matches(), replica.Matches()) {
		t.Fatalf("%s: matches diverge", label)
	}
	if ps, rs := primary.Stats(), replica.Stats(); ps != rs {
		t.Fatalf("%s: stats diverge:\nprimary %+v\nreplica %+v", label, ps, rs)
	}
	pb, rb := snapshotBytes(t, primary), snapshotBytes(t, replica)
	if !bytes.Equal(pb, rb) {
		t.Fatalf("%s: snapshots not bit-identical (%d vs %d bytes)", label, len(pb), len(rb))
	}
}

// TestJournalCarriesDelta: upsert entries must record the full delta
// payload (the bug this PR fixes — subjects alone cannot be replayed);
// delete entries stay payload-free.
func TestJournalCarriesDelta(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 17, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2 := docFromKB(t, b.WriteKB2)
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 6; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
	}
	journal := ix.Journal()
	if len(journal) == 0 {
		t.Fatal("no journal entries after mutations")
	}
	upserts := 0
	for _, je := range journal {
		switch je.Op {
		case minoaner.JournalUpsert:
			upserts++
			if len(je.Delta) == 0 {
				t.Fatalf("epoch %d: upsert entry has no delta payload", je.Seq)
			}
			if len(je.Delta) != je.Triples {
				t.Fatalf("epoch %d: %d delta lines for %d triples", je.Seq, len(je.Delta), je.Triples)
			}
			for _, line := range je.Delta {
				if !strings.HasSuffix(strings.TrimSpace(line), ".") {
					t.Fatalf("epoch %d: delta line not N-Triples: %q", je.Seq, line)
				}
			}
		case minoaner.JournalDelete:
			if len(je.Delta) != 0 {
				t.Fatalf("epoch %d: delete entry carries a delta payload", je.Seq)
			}
		}
	}
	if upserts == 0 {
		t.Fatal("storm produced no upserts")
	}
}

// TestReplayRebuildEquivalence is the tentpole invariant: a replica
// bootstrapped from the primary's epoch-0 snapshot and fed the journal
// through Replay converges to the primary bit-for-bit — matches,
// stats, and snapshot bytes — on all four benchmarks.
func TestReplayRebuildEquivalence(t *testing.T) {
	for _, name := range minoaner.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := minoaner.GenerateBenchmark(name, 42, 0.08)
			if err != nil {
				t.Fatal(err)
			}
			primary, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			base := snapshotBytes(t, primary)

			d1 := docFromKB(t, b.WriteKB1)
			d2 := docFromKB(t, b.WriteKB2)
			rng := rand.New(rand.NewSource(99))
			applied := 0
			for round := 0; applied < 8 && round < 24; round++ {
				side, doc, cur := 2, d2, primary.KB2()
				if rng.Intn(3) == 0 {
					side, doc, cur = 1, d1, primary.KB1()
				}
				if mutationStep(t, rng, primary, side, doc, cur, round) {
					applied++
				}
			}

			replica, err := minoaner.LoadIndex(bytes.NewReader(base))
			if err != nil {
				t.Fatal(err)
			}
			n, err := replica.Replay(context.Background(), primary.Journal())
			if err != nil {
				t.Fatal(err)
			}
			if n != int(primary.Epoch()) {
				t.Fatalf("replayed %d entries, want %d", n, primary.Epoch())
			}
			assertConverged(t, name, primary, replica)

			// Replay is idempotent: feeding the same journal again is a
			// no-op, not a divergence.
			if n, err := replica.Replay(context.Background(), primary.Journal()); err != nil || n != 0 {
				t.Fatalf("second replay applied %d entries, err %v", n, err)
			}
		})
	}
}

// TestReplayRejectsGapsAndStrippedDeltas: entries that jump epochs or
// upserts without a payload (a journal from before the replayable
// format) are typed journal-truncation errors — the replica's signal
// to resync from a snapshot.
func TestReplayRejectsGapsAndStrippedDeltas(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 21, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := snapshotBytes(t, primary)
	d2 := docFromKB(t, b.WriteKB2)
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 4; round++ {
		mutationStep(t, rng, primary, 2, d2, primary.KB2(), round)
	}
	journal := primary.Journal()
	if len(journal) < 2 {
		t.Fatalf("want >= 2 journal entries, got %d", len(journal))
	}

	replica, err := minoaner.LoadIndex(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.Replay(context.Background(), journal[1:]); !errors.Is(err, minoaner.ErrJournalTruncated) {
		t.Fatalf("gap replay err = %v, want ErrJournalTruncated", err)
	}

	var firstUpsert int
	for i, je := range journal {
		if je.Op == minoaner.JournalUpsert {
			firstUpsert = i
			break
		}
	}
	stripped := append([]minoaner.JournalEntry(nil), journal...)
	stripped[firstUpsert].Delta = nil
	if _, err := replica.Replay(context.Background(), stripped); !errors.Is(err, minoaner.ErrJournalTruncated) {
		t.Fatalf("stripped-delta replay err = %v, want ErrJournalTruncated", err)
	}
}

// TestJournalSince pins the cursor protocol: (base, epoch] coverage,
// empty tails at or past the head, and a typed truncation error once
// Compact has dropped the cursor.
func TestJournalSince(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 29, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2 := docFromKB(t, b.WriteKB2)
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 5; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
	}
	epoch := ix.Epoch()

	full, err := ix.JournalSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Epoch != epoch || !reflect.DeepEqual(full.Entries, ix.Journal()) {
		t.Fatal("JournalSince(0) is not the full journal")
	}
	mid, err := ix.JournalSince(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Entries) != int(epoch)-2 || mid.Entries[0].Seq != 3 {
		t.Fatalf("JournalSince(2): %d entries starting at %d", len(mid.Entries), mid.Entries[0].Seq)
	}
	for _, since := range []uint64{epoch, epoch + 5} {
		tail, err := ix.JournalSince(since)
		if err != nil || len(tail.Entries) != 0 {
			t.Fatalf("JournalSince(%d): %d entries, err %v", since, len(tail.Entries), err)
		}
	}

	ix.Compact()
	if _, err := ix.JournalSince(0); !errors.Is(err, minoaner.ErrJournalTruncated) {
		t.Fatalf("post-compact JournalSince(0) err = %v, want ErrJournalTruncated", err)
	}
	if tail, err := ix.JournalSince(epoch); err != nil || tail.Compactions != 1 {
		t.Fatalf("post-compact JournalSince(epoch): compactions %d, err %v", tail.Compactions, err)
	}
}

// TestServeJournalAndSnapshotEndpoints: /journal streams the NDJSON
// tail with cursor headers and answers 410 Gone past a compaction;
// /snapshot serves the exact SaveIndex bytes.
func TestServeJournalAndSnapshotEndpoints(t *testing.T) {
	_, ix, srv, _, d2 := newMutableServer(t)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 4; round++ {
		mutationStep(t, rng, ix, 2, d2, ix.KB2(), round)
	}

	resp, err := http.Get(srv.URL + fmt.Sprintf("/journal?since=%d", 1))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/journal status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("/journal content type %q", got)
	}
	if got := resp.Header.Get("X-Minoaner-Epoch"); got != fmt.Sprint(ix.Epoch()) {
		t.Fatalf("X-Minoaner-Epoch %q, want %d", got, ix.Epoch())
	}
	if got := resp.Header.Get("X-Minoaner-Compactions"); got != "0" {
		t.Fatalf("X-Minoaner-Compactions %q, want 0", got)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	want := ix.Journal()[1:]
	if len(lines) != len(want) {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var rec struct {
			Seq      uint64   `json:"seq"`
			Op       string   `json:"op"`
			Subjects []string `json:"subjects"`
			Delta    []string `json:"delta"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Seq != want[i].Seq || !reflect.DeepEqual(rec.Subjects, want[i].Subjects) {
			t.Fatalf("line %d does not match journal entry %+v", i, want[i])
		}
		if want[i].Op == minoaner.JournalUpsert && !reflect.DeepEqual(rec.Delta, want[i].Delta) {
			t.Fatalf("line %d delta does not match journal entry", i)
		}
	}

	if resp, err := http.Get(srv.URL + "/journal?since=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad cursor status %d, want 400", resp.StatusCode)
		}
	}

	snap, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snapBody, _ := io.ReadAll(snap.Body)
	snap.Body.Close()
	if snap.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot status %d", snap.StatusCode)
	}
	if !bytes.Equal(snapBody, snapshotBytes(t, ix)) {
		t.Fatal("/snapshot bytes differ from SaveIndex")
	}

	ix.Compact()
	gone, err := http.Get(srv.URL + "/journal?since=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gone.Body)
	gone.Body.Close()
	if gone.StatusCode != http.StatusGone {
		t.Fatalf("post-compact /journal status %d, want 410", gone.StatusCode)
	}
	if got := gone.Header.Get("X-Minoaner-Compactions"); got != "1" {
		t.Fatalf("post-compact X-Minoaner-Compactions %q, want 1", got)
	}
}

// waitForReplica polls until cond holds or the deadline passes.
func waitForReplica(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaFollowsPrimary: a Replica bootstraps over HTTP, tails the
// journal, and converges bit-for-bit with the primary after each batch
// of mutations.
func TestReplicaFollowsPrimary(t *testing.T) {
	_, primary, srv, _, d2 := newMutableServer(t)
	rep, err := minoaner.NewReplica(srv.URL,
		minoaner.WithReplicaClient(srv.Client()),
		minoaner.WithReplicaPoll(2*time.Millisecond),
		minoaner.WithReplicaJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	})

	waitForReplica(t, "bootstrap", func() bool { return rep.Index() != nil })
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 6; round++ {
		mutationStep(t, rng, primary, 2, d2, primary.KB2(), round)
	}
	target := primary.Epoch()
	waitForReplica(t, "catch-up", func() bool { return rep.Index().Epoch() >= target })
	assertConverged(t, "tailing", primary, rep.Index())

	st := rep.Status()
	if st.Lag != 0 || st.PrimaryEpoch != target || st.Applied < int64(target) {
		t.Fatalf("status after catch-up: %+v", st)
	}
	if st.Resyncs != 0 {
		t.Fatalf("bootstrap counted as a resync: %+v", st)
	}
}

// TestCompactThenBootstrapConverges is the timing-free form of the
// divergence TestReplicaStormWithCompactResync used to hit one run in
// ten: a snapshot taken between Compact and the compacted side's next
// mutation must carry the compacted term table. It used to ship the
// epoch's uncompacted one, whose orphaned terms the bootstrapping
// replica then kept for good while the primary went on without them.
func TestCompactThenBootstrapConverges(t *testing.T) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 17, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	upsert := func(uri string) {
		t.Helper()
		delta, err := minoaner.LoadKB("delta", strings.NewReader(
			"<"+uri+"> <http://mut/name> \"a name nobody else has\" .\n"+
				"<"+uri+"> <http://mut/seen> <http://mut/elsewhere> .\n"))
		if err != nil {
			t.Fatal(err)
		}
		if err := primary.Upsert(ctx, 2, delta); err != nil {
			t.Fatal(err)
		}
	}
	// Orphan some terms, then compact them away.
	upsert("http://mut/x")
	if err := primary.Delete(ctx, 2, "http://mut/x"); err != nil {
		t.Fatal(err)
	}
	primary.Compact()

	replica, err := minoaner.LoadIndex(bytes.NewReader(snapshotBytes(t, primary)))
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, "bootstrap after compact", primary, replica)

	since := replica.Epoch()
	upsert("http://mut/y")
	tail, err := primary.JournalSince(since)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := replica.Replay(ctx, tail.Entries); err != nil || n != 1 {
		t.Fatalf("replayed %d entries, err %v; want 1, nil", n, err)
	}
	assertConverged(t, "mutation after bootstrap", primary, replica)
}

// TestReplicaStormWithCompactResync is the ISSUE's mutation storm:
// random upserts and deletes on the primary while a replica tails it,
// with a mid-storm Compact forcing the replica through the
// truncation/resync path. The replica must report the resync and end
// bit-for-bit identical to the primary. Run under -race.
func TestReplicaStormWithCompactResync(t *testing.T) {
	_, primary, srv, d1, d2 := newMutableServer(t)
	rep, err := minoaner.NewReplica(srv.URL,
		minoaner.WithReplicaClient(srv.Client()),
		minoaner.WithReplicaPoll(2*time.Millisecond),
		minoaner.WithReplicaBackoffMax(20*time.Millisecond),
		minoaner.WithReplicaJitterSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitForReplica(t, "bootstrap", func() bool { return rep.Index() != nil })

	// Serve the replica's index over HTTP throughout the storm — reads
	// must survive resyncs without a hiccup.
	repSrv := httptest.NewServer(minoaner.NewServer(rep.Index(), minoaner.WithReplica(rep)))
	t.Cleanup(repSrv.Close)

	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 16; round++ {
		side, doc, cur := 2, d2, primary.KB2()
		if rng.Intn(3) == 0 {
			side, doc, cur = 1, d1, primary.KB1()
		}
		mutationStep(t, rng, primary, side, doc, cur, round)
		if round == 7 {
			// Let the replica catch up, then compact: its next poll
			// sees the moved compaction counter and must resync even
			// though its cursor is still within the (empty) journal.
			target := primary.Epoch()
			waitForReplica(t, "pre-compact catch-up", func() bool { return rep.Index().Epoch() >= target })
			primary.Compact()
		}
		if round%5 == 0 {
			if resp, err := srv.Client().Get(repSrv.URL + "/stats"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}

	target := primary.Epoch()
	waitForReplica(t, "post-storm convergence", func() bool {
		return rep.Index().Epoch() == target && rep.Status().Resyncs >= 1
	})
	assertConverged(t, "post-storm", primary, rep.Index())
	if st := rep.Status(); st.Resyncs < 1 {
		t.Fatalf("compaction did not force a resync: %+v", st)
	}

	// The replica's /metrics advertises zero lag and the resync count.
	resp, err := srv.Client().Get(repSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"minoaner_replica_lag_epochs 0\n",
		"minoaner_replica_primary_epoch " + fmt.Sprint(target),
		"minoaner_replica_resyncs_total",
		"minoaner_replica_entries_applied_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("replica /metrics missing %q:\n%s", want, metrics)
		}
	}

	// And /stats exposes the replication object.
	sresp, err := srv.Client().Get(repSrv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Replica *struct {
			Primary      string `json:"primary"`
			PrimaryEpoch uint64 `json:"primary_epoch"`
			LagEpochs    uint64 `json:"lag_epochs"`
			Resyncs      int64  `json:"resyncs"`
		} `json:"replica"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Replica == nil || stats.Replica.Resyncs < 1 || stats.Replica.LagEpochs != 0 {
		t.Fatalf("replica /stats: %+v", stats.Replica)
	}

	// Final cross-check through the serving layer: identical /resolve
	// answers from primary and replica.
	uris := append(primary.KB1().URIs()[:5:5], primary.KB2().URIs()[:5]...)
	if p, r := resolveBody(t, srv.URL, uris), resolveBody(t, repSrv.URL, uris); p != r {
		t.Fatalf("/resolve diverges:\nprimary: %s\nreplica: %s", p, r)
	}
}

// TestNewReplicaValidation rejects URLs a replica cannot tail.
func TestNewReplicaValidation(t *testing.T) {
	for _, bad := range []string{"", "ftp://x", "http://", "://nope", "not a url\x7f"} {
		if _, err := minoaner.NewReplica(bad); err == nil {
			t.Errorf("NewReplica(%q) accepted", bad)
		}
	}
	if _, err := minoaner.NewReplica("http://primary:8080/"); err != nil {
		t.Errorf("NewReplica rejected a valid URL: %v", err)
	}
}
