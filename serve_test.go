package minoaner_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"minoaner"
)

func newTestServer(t *testing.T) (*minoaner.Benchmark, *minoaner.Index, *httptest.Server) {
	t.Helper()
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 21, 0.15)
	srv := httptest.NewServer(minoaner.NewServer(ix))
	t.Cleanup(srv.Close)
	return b, ix, srv
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServeHealthzAndStats(t *testing.T) {
	_, ix, srv := newTestServer(t)

	var health struct {
		Status  string `json:"status"`
		Matches int    `json:"matches"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Matches != len(ix.Matches()) {
		t.Errorf("healthz = %+v", health)
	}

	var stats struct {
		Matches     int `json:"matches"`
		TokenBlocks int `json:"token_blocks"`
		KB1         struct {
			Entities int `json:"entities"`
		} `json:"kb1"`
	}
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	want := ix.Stats()
	if stats.Matches != want.Matches || stats.TokenBlocks != want.TokenBlocks || stats.KB1.Entities != want.KB1.Entities {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
}

type resolveResponse struct {
	Results []struct {
		URI     string `json:"uri"`
		In1     bool   `json:"in_kb1"`
		In2     bool   `json:"in_kb2"`
		Matches []struct {
			URI1 string `json:"uri1"`
			URI2 string `json:"uri2"`
		} `json:"matches"`
	} `json:"results"`
}

func TestServeResolveGetAndPost(t *testing.T) {
	b, ix, srv := newTestServer(t)
	matches := ix.Matches()
	if len(matches) == 0 {
		t.Fatal("benchmark produced no matches")
	}
	matched := matches[0].URI2
	unknown := "http://nowhere.example.org/x"

	var viaGet resolveResponse
	code := getJSON(t, srv.URL+"/resolve?uri="+matched+"&uri="+unknown, &viaGet)
	if code != http.StatusOK {
		t.Fatalf("resolve status %d", code)
	}
	if len(viaGet.Results) != 2 {
		t.Fatalf("got %d results", len(viaGet.Results))
	}
	if !viaGet.Results[0].In2 || len(viaGet.Results[0].Matches) == 0 {
		t.Errorf("matched URI result: %+v", viaGet.Results[0])
	}
	if viaGet.Results[0].Matches[0].URI1 != matches[0].URI1 {
		t.Errorf("match URI1 = %q, want %q", viaGet.Results[0].Matches[0].URI1, matches[0].URI1)
	}
	if viaGet.Results[1].In1 || viaGet.Results[1].In2 || len(viaGet.Results[1].Matches) != 0 {
		t.Errorf("unknown URI result: %+v", viaGet.Results[1])
	}

	body, _ := json.Marshal(map[string][]string{"uris": {matched, unknown}})
	resp, err := http.Post(srv.URL+"/resolve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var viaPost resolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&viaPost); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaGet, viaPost) {
		t.Error("GET and POST /resolve disagree")
	}

	// Error paths.
	if code := getJSON(t, srv.URL+"/resolve", nil); code != http.StatusBadRequest {
		t.Errorf("empty resolve status %d", code)
	}
	resp2, err := http.Post(srv.URL+"/resolve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status %d", resp2.StatusCode)
	}
	_ = b
}

func TestServeDelta(t *testing.T) {
	b, _, srv := newTestServer(t)
	var nt bytes.Buffer
	if err := b.WriteKB2(&nt); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/delta?name=kb2-replay", "application/x-ntriples", bytes.NewReader(nt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		t.Fatalf("delta status %d: %s", resp.StatusCode, payload)
	}
	var delta struct {
		Name     string           `json:"name"`
		Entities int              `json:"entities"`
		Matches  []minoaner.Match `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&delta); err != nil {
		t.Fatal(err)
	}
	if delta.Name != "kb2-replay" || delta.Entities != b.KB2.Len() {
		t.Errorf("delta header = %+v", delta)
	}
	// Resolving the whole KB2 serialization against the indexed KB1
	// must reproduce the batch result, pair for pair.
	ref, err := minoaner.Resolve(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(delta.Matches, ref.Matches) {
		t.Errorf("delta matches %d pairs, batch %d: lists differ", len(delta.Matches), len(ref.Matches))
	}

	// Malformed body: strict rejects, lenient succeeds and counts the
	// skipped line.
	resp2, err := http.Post(srv.URL+"/delta", "application/x-ntriples", strings.NewReader("junk line\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("strict junk delta status %d", resp2.StatusCode)
	}
	var lenient struct {
		Entities     int `json:"entities"`
		SkippedLines int `json:"skipped_lines"`
	}
	resp3, err := http.Post(srv.URL+"/delta?lenient=1", "application/x-ntriples", strings.NewReader("junk line\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("lenient junk delta status %d", resp3.StatusCode)
	}
	if err := json.NewDecoder(resp3.Body).Decode(&lenient); err != nil {
		t.Fatal(err)
	}
	if lenient.Entities != 0 || lenient.SkippedLines != 1 {
		t.Errorf("lenient junk delta = %+v, want 0 entities and 1 skipped line", lenient)
	}
}

// repeatReader yields a repeating byte pattern forever — an oversized
// body without materializing it.
type repeatReader struct{ pattern []byte }

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.pattern[i%len(r.pattern)]
	}
	return len(p), nil
}

// TestServePayloadLimits: oversized POST bodies on /resolve and /delta
// are rejected with 413 and a JSON error, not an opaque parse failure.
func TestServePayloadLimits(t *testing.T) {
	_, _, srv := newTestServer(t)

	check := func(path string, body io.Reader) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d, want 413", path, resp.StatusCode)
		}
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			t.Fatalf("%s 413 response is not JSON: %v", path, err)
		}
		if msg.Error == "" {
			t.Errorf("%s 413 response carries no error message", path)
		}
	}

	// /resolve caps at 16 MiB (a syntactically valid prefix with one
	// endless string keeps the decoder reading until the cap trips),
	// /delta at 64 MiB (lenient mode keeps the parser reading junk).
	check("/resolve", io.MultiReader(
		strings.NewReader(`{"uris": ["`),
		io.LimitReader(repeatReader{[]byte("a")}, 16<<20+1024)))
	check("/delta?lenient=1", io.LimitReader(repeatReader{[]byte("junk \n")}, 64<<20+1024))
}

// TestServeConcurrentQueriesMatchSequential is the serve acceptance
// property: N goroutines hammering one shared Index produce responses
// identical to a sequential pass — under -race, this also proves the
// read path is data-race-free.
func TestServeConcurrentQueriesMatchSequential(t *testing.T) {
	b, ix, srv := newTestServer(t)
	uris := b.KB2.URIs()

	// Sequential reference: one response body per URI, via the handler.
	sequential := make([]string, len(uris))
	for i, uri := range uris {
		sequential[i] = fetchResolve(t, srv.URL, uri)
	}

	const (
		goroutines = 16
		rounds     = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger start offsets so goroutines hit different URIs at
				// the same instant.
				for i := range uris {
					idx := (i + g*7 + r) % len(uris)
					got, err := fetchResolveErr(srv.URL, uris[idx])
					if err != nil {
						errs <- err
						return
					}
					if got != sequential[idx] {
						errs <- fmt.Errorf("goroutine %d: response for %q diverged:\n%s\nvs sequential\n%s",
							g, uris[idx], got, sequential[idx])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Direct Index.Query concurrency (no HTTP in between), same property.
	seqResults := make([][]minoaner.QueryResult, len(uris))
	for i, uri := range uris {
		seqResults[i] = ix.Query(uri)
	}
	var wg2 sync.WaitGroup
	errs2 := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg2.Add(1)
		go func(g int) {
			defer wg2.Done()
			for i := range uris {
				idx := (i + g*3) % len(uris)
				if got := ix.Query(uris[idx]); !reflect.DeepEqual(got, seqResults[idx]) {
					errs2 <- fmt.Errorf("Query(%q) diverged under concurrency", uris[idx])
					return
				}
			}
		}(g)
	}
	wg2.Wait()
	close(errs2)
	for err := range errs2 {
		t.Fatal(err)
	}
}

func fetchResolve(t *testing.T, base, uri string) string {
	t.Helper()
	body, err := fetchResolveErr(base, uri)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func fetchResolveErr(base, uri string) (string, error) {
	resp, err := http.Get(base + "/resolve?uri=" + uri)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("resolve %q: status %d: %s", uri, resp.StatusCode, payload)
	}
	return string(payload), nil
}
