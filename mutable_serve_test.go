package minoaner_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"minoaner"
	"minoaner/internal/binio"
)

// newMutableServer builds a mutable index over a benchmark and serves
// it with mutations enabled.
func newMutableServer(t *testing.T) (*minoaner.Benchmark, *minoaner.Index, *httptest.Server, *ntDoc, *ntDoc) {
	t.Helper()
	b, err := minoaner.GenerateBenchmark("Restaurant", 31, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(minoaner.NewServer(ix, minoaner.WithMutations()))
	t.Cleanup(srv.Close)
	return b, ix, srv, docFromKB(t, b.WriteKB1), docFromKB(t, b.WriteKB2)
}

func postBody(t *testing.T, url, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// resolveBody fetches /resolve output for a set of URIs.
func resolveBody(t *testing.T, base string, uris []string) string {
	t.Helper()
	payload, _ := json.Marshal(map[string][]string{"uris": uris})
	resp, data := postBody(t, base+"/resolve", "application/json", string(payload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/resolve status %d: %s", resp.StatusCode, data)
	}
	return string(data)
}

// TestServeMutations drives scripted upserts and deletes over HTTP and
// asserts the served /resolve output equals a fresh rebuild's — the
// serve-layer face of the rebuild-equivalence invariant.
func TestServeMutations(t *testing.T) {
	_, ix, srv, d1, d2 := newMutableServer(t)
	uris2 := ix.KB2().URIs()

	// Upsert: perturb an existing entity.
	target := uris2[len(uris2)/3]
	delta := append(d2.linesOf(target),
		fmt.Sprintf("%s <http://mut/extra> \"served mutation alpha\" .", subjectToken(target)))
	resp, data := postBody(t, srv.URL+"/upsert?side=2", "application/n-triples", strings.Join(delta, "\n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/upsert status %d: %s", resp.StatusCode, data)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/upsert Cache-Control = %q, want no-store", cc)
	}
	var mut struct {
		Epoch    uint64 `json:"epoch"`
		Side     int    `json:"side"`
		Subjects int    `json:"subjects"`
	}
	if err := json.Unmarshal(data, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.Epoch != 1 || mut.Side != 2 || mut.Subjects != 1 {
		t.Fatalf("upsert response %+v", mut)
	}
	d2.upsert(delta)

	// Delete another entity.
	victim := uris2[len(uris2)/5]
	payload, _ := json.Marshal(map[string]any{"side": 2, "uris": []string{victim}})
	resp, data = postBody(t, srv.URL+"/delete", "application/json", string(payload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/delete status %d: %s", resp.StatusCode, data)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/delete Cache-Control = %q, want no-store", cc)
	}
	d2.remove(victim)

	// The served output now equals a fresh rebuild over the mutated
	// docs, URI by URI.
	fresh, err := minoaner.BuildIndex(d1.kb(t, "kb1"), d2.kb(t, "kb2"), minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	freshSrv := httptest.NewServer(minoaner.NewServer(fresh))
	defer freshSrv.Close()
	sample := append([]string{target, victim}, uris2[:20]...)
	if got, want := resolveBody(t, srv.URL, sample), resolveBody(t, freshSrv.URL, sample); got != want {
		t.Fatalf("served /resolve diverges from fresh rebuild:\n got %s\nwant %s", got, want)
	}

	// /stats reflects the epoch, journal, and traffic counters.
	var stats struct {
		Epoch         uint64 `json:"epoch"`
		JournalLength int    `json:"journal_length"`
		Mutable       bool   `json:"mutable"`
		Endpoints     map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if cc := sresp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("mutable /stats Cache-Control = %q, want no-store", cc)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 2 || stats.JournalLength != 2 || !stats.Mutable {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Endpoints["upsert"].Requests != 1 || stats.Endpoints["delete"].Requests != 1 {
		t.Fatalf("endpoint counters = %+v", stats.Endpoints)
	}
	if stats.Endpoints["resolve"].Requests == 0 {
		t.Fatalf("resolve counter missing: %+v", stats.Endpoints)
	}
}

// TestServeMutationValidation covers the endpoints' error paths.
func TestServeMutationValidation(t *testing.T) {
	_, _, srv, _, _ := newMutableServer(t)

	// One byte over the 16 MiB JSON body cap; the string never closes, so
	// the decoder reads until the cap trips.
	const oversizedPrefix = `{"side":2,"uris":["`
	oversized := oversizedPrefix + strings.Repeat("a", 16<<20+1-len(oversizedPrefix))

	cases := []struct {
		name   string
		method string
		url    string
		body   string
		status int
	}{
		{"upsert bad side", "POST", "/upsert?side=3", "<http://a> <http://b> \"c\" .", http.StatusBadRequest},
		{"upsert empty", "POST", "/upsert", "", http.StatusBadRequest},
		{"upsert garbage", "POST", "/upsert", "this is not n-triples", http.StatusBadRequest},
		{"delete no uris", "POST", "/delete", `{"side":2,"uris":[]}`, http.StatusBadRequest},
		{"delete bad side", "POST", "/delete", `{"side":9,"uris":["http://x"]}`, http.StatusBadRequest},
		{"delete bad json", "POST", "/delete", "{", http.StatusBadRequest},
		{"delete oversized", "POST", "/delete", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postBody(t, srv.URL+tc.url, "application/octet-stream", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, data)
			}
			if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
				t.Fatalf("Cache-Control = %q, want no-store", cc)
			}
		})
	}

	// Deleting absent URIs succeeds as a no-op without bumping the
	// epoch.
	resp, data := postBody(t, srv.URL+"/delete", "application/json", `{"side":2,"uris":["http://nowhere/x"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op delete status %d: %s", resp.StatusCode, data)
	}
	var mut struct {
		Epoch uint64 `json:"epoch"`
		NoOp  bool   `json:"no_op"`
	}
	if err := json.Unmarshal(data, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.Epoch != 0 || !mut.NoOp {
		t.Fatalf("no-op delete response %+v", mut)
	}
}

// TestServeReadOnlyRejectsMutations: without WithMutations the
// endpoints 403; over an immutable snapshot they 409.
func TestServeReadOnlyRejectsMutations(t *testing.T) {
	_, _, srv := newTestServer(t) // read-only server
	resp, _ := postBody(t, srv.URL+"/delete", "application/json", `{"side":2,"uris":["http://x"]}`)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only /delete status %d, want 403", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}

	b, err := minoaner.GenerateBenchmark("Restaurant", 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1.WithoutSources(), b.KB2.WithoutSources(), minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(minoaner.NewServer(ix, minoaner.WithMutations()))
	defer srv2.Close()
	resp, _ = postBody(t, srv2.URL+"/delete", "application/json", `{"side":2,"uris":["http://x"]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("immutable /delete status %d, want 409", resp.StatusCode)
	}
}

// TestServeNoStoreOnErrors: every error-shaped response — unknown
// paths, wrong methods, handler errors — carries Cache-Control:
// no-store so intermediaries never cache stale failures.
func TestServeNoStoreOnErrors(t *testing.T) {
	_, _, srv := newTestServer(t)

	check := func(label string, resp *http.Response) {
		t.Helper()
		if resp.StatusCode < 400 {
			t.Fatalf("%s: status %d, want an error", label, resp.StatusCode)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("%s: Cache-Control = %q, want no-store", label, cc)
		}
	}

	resp, err := http.Get(srv.URL + "/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check("404", resp)

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/resolve", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check("405", resp)

	resp, err = http.Get(srv.URL + "/resolve") // no URIs -> writeError
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check("writeError", resp)

	// Success responses on read-only lookups stay cacheable (no
	// header).
	var buf bytes.Buffer
	_ = buf
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "" {
		t.Fatalf("healthz Cache-Control = %q, want unset", cc)
	}
}

// TestServeConcurrentMutationsAndReads: HTTP readers race an HTTP
// mutation storm; every response must parse and the final state must
// equal the reference rebuild (run under -race).
func TestServeConcurrentMutationsAndReads(t *testing.T) {
	_, ix, srv, d1, d2 := newMutableServer(t)
	uris2 := ix.KB2().URIs()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			var r resolveResponse
			code := getJSON(t, srv.URL+"/resolve?uri="+uris2[i%len(uris2)], &r)
			if code != http.StatusOK {
				t.Errorf("resolve status %d", code)
				return
			}
		}
	}()
	for round := 0; round < 6; round++ {
		target := uris2[(round*7)%len(uris2)]
		delta := append(d2.linesOf(target),
			fmt.Sprintf("%s <http://mut/extra> \"storm %d\" .", subjectToken(target), round))
		resp, data := postBody(t, srv.URL+"/upsert?side=2", "application/n-triples", strings.Join(delta, "\n"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("storm upsert %d: status %d: %s", round, resp.StatusCode, data)
		}
		d2.upsert(delta)
	}
	<-done

	fresh, err := minoaner.BuildIndex(d1.kb(t, "kb1"), d2.kb(t, "kb2"), minoaner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix.Matches(), fresh.Matches()) {
		t.Fatal("post-storm matches diverge from rebuild")
	}
}

// TestServeCorruptSubstrateAnswers500: a damaged section 8 in a mapped,
// sources-retaining snapshot is the server's fault, not the client's.
// The section decodes on first demand, so /delta, /upsert and /delete
// each answer 500, and GET /snapshot — failing before its first byte —
// answers a JSON 500 instead of an empty 200.
func TestServeCorruptSubstrateAnswers500(t *testing.T) {
	b, ix, _ := buildBenchmarkIndex(t, "Restaurant", 31, 0.15)
	data := snapshotBytes(t, ix)
	m, err := binio.BytesMap(data, [4]byte{'M', 'S', 'N', 'P'}, minoaner.SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := m.Raw(8)
	if !ok {
		t.Fatal("snapshot carries no section 8")
	}
	data[bytes.Index(data, payload)+len(payload)/2] ^= 0x10
	path := filepath.Join(t.TempDir(), "index.msnp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := minoaner.OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mutable() {
		t.Fatal("snapshot lost its sources")
	}
	srv := httptest.NewServer(minoaner.NewServer(mapped, minoaner.WithMutations()))
	defer srv.Close()

	uri := b.KB2.URIs()[0]
	entity := strings.Join(docFromKB(t, b.WriteKB2).linesOf(uri), "\n")
	del, _ := json.Marshal(map[string]any{"side": 2, "uris": []string{uri}})
	for _, req := range []struct{ path, contentType, body string }{
		{"/delta", "application/n-triples", entity},
		{"/upsert?side=2", "application/n-triples", entity},
		{"/delete", "application/json", string(del)},
	} {
		if resp, data := postBody(t, srv.URL+req.path, req.contentType, req.body); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("POST %s: status %d, want 500 (%s)", req.path, resp.StatusCode, data)
		}
	}
	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(body.Error, "corrupt") {
		t.Errorf("GET /snapshot: status %d, body %+v (%v), want a JSON 500 naming the corruption", resp.StatusCode, body, err)
	}
}
