package minoaner_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"minoaner"
)

type streamRecord struct {
	URI1      string  `json:"uri1"`
	URI2      string  `json:"uri2"`
	Score     float64 `json:"score"`
	Heuristic string  `json:"heuristic"`
}

// getStream issues one /resolve/stream request and decodes the NDJSON
// body line by line, failing on any malformed record.
func getStream(t *testing.T, url string) []streamRecord {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []streamRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%q)", len(out)+1, err, sc.Text())
		}
		if rec.URI1 == "" || rec.URI2 == "" {
			t.Fatalf("line %d missing URIs: %q", len(out)+1, sc.Text())
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeResolveStreamDrainEqualsMatches: an unbudgeted stream
// response is valid NDJSON with non-increasing scores whose pair set is
// exactly the epoch's match set, under both strategies.
func TestServeResolveStreamDrainEqualsMatches(t *testing.T) {
	_, ix, srv := newTestServer(t)
	want := sortMatches(ix.Matches())
	if len(want) == 0 {
		t.Fatal("index holds no matches; fixture too small")
	}
	for _, strategy := range []string{"", "?strategy=weight", "?strategy=blocks"} {
		recs := getStream(t, srv.URL+"/resolve/stream"+strategy)
		got := make([]minoaner.Match, len(recs))
		for i, r := range recs {
			if i > 0 && r.Score > recs[i-1].Score {
				t.Fatalf("strategy %q: score increased at record %d", strategy, i)
			}
			got[i] = minoaner.Match{URI1: r.URI1, URI2: r.URI2}
		}
		if gotSorted := sortMatches(got); len(gotSorted) != len(want) {
			t.Errorf("strategy %q: streamed %d pairs, index has %d matches", strategy, len(gotSorted), len(want))
		} else {
			for i := range want {
				if gotSorted[i] != want[i] {
					t.Errorf("strategy %q: pair %d = %+v, want %+v", strategy, i, gotSorted[i], want[i])
					break
				}
			}
		}
	}
}

// TestServeResolveStreamMaxPairs: max_pairs=k returns exactly the first
// k records of the unbudgeted stream.
func TestServeResolveStreamMaxPairs(t *testing.T) {
	_, _, srv := newTestServer(t)
	full := getStream(t, srv.URL+"/resolve/stream")
	if len(full) < 4 {
		t.Fatalf("need at least 4 matches, got %d", len(full))
	}
	k := len(full) / 2
	got := getStream(t, fmt.Sprintf("%s/resolve/stream?max_pairs=%d", srv.URL, k))
	if len(got) != k {
		t.Fatalf("max_pairs=%d returned %d records", k, len(got))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("record %d = %+v, not the stream prefix %+v", i, got[i], full[i])
		}
	}
}

// TestServeResolveStreamBadParams: malformed budgets and strategies are
// rejected with 400 before any streaming starts.
func TestServeResolveStreamBadParams(t *testing.T) {
	_, _, srv := newTestServer(t)
	for _, q := range []string{
		"max_pairs=0", "max_pairs=-3", "max_pairs=abc",
		"max_comparisons=0", "max_comparisons=x",
		"budget_ms=0", "budget_ms=-1", "budget_ms=soon",
		// One past the 24 h cap, and the value whose millisecond
		// conversion used to overflow into an already-expired deadline
		// (200 with an empty body).
		"budget_ms=86400001", "budget_ms=9223372036855",
		"strategy=fastest",
	} {
		resp, err := http.Get(srv.URL + "/resolve/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// The cap itself is a valid budget.
	if recs := getStream(t, srv.URL+"/resolve/stream?budget_ms=86400000"); len(recs) == 0 {
		t.Error("budget_ms=86400000 streamed nothing")
	}
}

// TestServeResolveStreamBudgetDoesNotPoisonBase: the epoch's first
// stream builds the base every later stream reuses; when that first
// request runs under a 1 ms budget, the next, unbudgeted one must still
// drain the whole match set.
func TestServeResolveStreamBudgetDoesNotPoisonBase(t *testing.T) {
	_, ix, srv := newTestServer(t)
	getStream(t, srv.URL+"/resolve/stream?budget_ms=1")
	recs := getStream(t, srv.URL+"/resolve/stream")
	got := make([]minoaner.Match, len(recs))
	for i, r := range recs {
		got[i] = minoaner.Match{URI1: r.URI1, URI2: r.URI2}
	}
	if !reflect.DeepEqual(sortMatches(got), sortMatches(ix.Matches())) {
		t.Errorf("after a budget_ms=1 first stream, an unbudgeted stream drained %d pairs, index has %d matches", len(got), ix.NumMatches())
	}
}

// TestServeResolveStreamCounters: streamed traffic shows up in /stats
// (pairs emitted, first-match count and latency, stream bases built)
// and /metrics.
func TestServeResolveStreamCounters(t *testing.T) {
	_, _, srv := newTestServer(t)
	recs := getStream(t, srv.URL+"/resolve/stream")
	if len(recs) == 0 {
		t.Fatal("stream emitted nothing")
	}
	// A second stream on the same epoch reuses the first one's base.
	if again := getStream(t, srv.URL+"/resolve/stream?max_pairs=1"); len(again) != 1 {
		t.Fatalf("max_pairs=1 streamed %d records", len(again))
	}
	emitted := int64(len(recs) + 1)

	var stats struct {
		Stream struct {
			PairsEmitted    int64 `json:"pairs_emitted"`
			FirstMatches    int64 `json:"first_matches"`
			AvgFirstMatchUS int64 `json:"avg_time_to_first_match_us"`
			BaseBuilds      int64 `json:"base_builds"`
		} `json:"stream"`
	}
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Stream.PairsEmitted != emitted {
		t.Errorf("stats pairs_emitted = %d, want %d", stats.Stream.PairsEmitted, emitted)
	}
	if stats.Stream.FirstMatches != 2 {
		t.Errorf("stats first_matches = %d, want 2", stats.Stream.FirstMatches)
	}
	if stats.Stream.BaseBuilds != 1 {
		t.Errorf("stats base_builds = %d after two streams on one epoch, want 1", stats.Stream.BaseBuilds)
	}
	if stats.Stream.AvgFirstMatchUS < 0 {
		t.Errorf("stats avg_time_to_first_match_us = %d", stats.Stream.AvgFirstMatchUS)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	found := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var name string
		var value float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &value); err != nil {
			continue
		}
		switch name {
		case "minoaner_stream_pairs_total":
			found[name] = true
			if int64(value) != emitted {
				t.Errorf("%s = %g, want %d", name, value, emitted)
			}
		case "minoaner_stream_first_match_total":
			found[name] = true
			if int64(value) != 2 {
				t.Errorf("%s = %g, want 2", name, value)
			}
		case "minoaner_stream_base_builds_total":
			found[name] = true
			if int64(value) != 1 {
				t.Errorf("%s = %g, want 1", name, value)
			}
		case "minoaner_stream_time_to_first_match_microseconds_total":
			found[name] = true
		}
	}
	for _, name := range []string{
		"minoaner_stream_pairs_total",
		"minoaner_stream_first_match_total",
		"minoaner_stream_time_to_first_match_microseconds_total",
		"minoaner_stream_base_builds_total",
	} {
		if !found[name] {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

// firstFlushWriter records what a handler writes and holds its first
// Flush until the test releases it, handing the test what had been
// written by then.
type firstFlushWriter struct {
	header  http.Header
	mu      sync.Mutex
	body    bytes.Buffer
	once    sync.Once
	flushed chan string
	release chan struct{}
}

func (w *firstFlushWriter) Header() http.Header { return w.header }
func (w *firstFlushWriter) WriteHeader(int)     {}

func (w *firstFlushWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(b)
}

func (w *firstFlushWriter) Flush() {
	w.once.Do(func() {
		w.mu.Lock()
		written := w.body.String()
		w.mu.Unlock()
		w.flushed <- written
		<-w.release
	})
}

// TestServeResolveStreamFlushesFirstMatch: the first record of an
// unbudgeted stream is flushed on its own, the moment it is written —
// the client holds it while the handler waits on that flush and the
// producer waits in emit for the next pair — and the records written
// after it, flushed in batches, complete the very stream an ordinary
// client reads.
func TestServeResolveStreamFlushesFirstMatch(t *testing.T) {
	_, ix, srv := newTestServer(t)
	full := getStream(t, srv.URL+"/resolve/stream")
	if len(full) < 2 {
		t.Fatalf("need at least 2 matches, got %d", len(full))
	}
	w := &firstFlushWriter{header: http.Header{}, flushed: make(chan string), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/resolve/stream", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		minoaner.NewServer(ix).ServeHTTP(w, req)
	}()
	var first string
	select {
	case first = <-w.flushed:
	case <-done:
		t.Fatal("the handler finished the stream without flushing")
	case <-time.After(time.Minute):
		t.Fatal("no flush within a minute")
	}
	var rec streamRecord
	if lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n"); len(lines) != 1 {
		t.Errorf("the first flush carried %d records, want the first alone", len(lines))
	} else if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec != full[0] {
		t.Errorf("the first flush carried %q, want the stream's first record %+v", first, full[0])
	}
	select {
	case <-done:
		t.Fatal("the handler finished while its first flush was held")
	default:
	}
	close(w.release)
	<-done
	var got []streamRecord
	for _, line := range strings.Split(strings.TrimSuffix(w.body.String(), "\n"), "\n") {
		var rec streamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not valid JSON: %v (%q)", len(got)+1, err, line)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, full) {
		t.Errorf("the held stream wrote %d records, an ordinary client read %d, or others", len(got), len(full))
	}
}
