package minoaner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Serve layer: an http.Handler exposing one Index over JSON. Lookup
// endpoints are read-only against the current epoch, so one Index
// safely serves any number of concurrent requests; responses for the
// same query are identical under any interleaving. With mutations
// enabled (WithMutations), POST /upsert and POST /delete absorb
// entity-level changes: readers keep answering from the old epoch
// until the new one swaps in atomically, and after the swap every
// response is bit-identical to a server over a from-scratch rebuild.
//
// Endpoints:
//
//	GET  /healthz              liveness: {"status":"ok"}
//	GET  /stats                IndexStats, epoch, journal length, and
//	                           per-endpoint request/latency counters
//	GET  /metrics              the same counters in Prometheus text
//	                           exposition format (requests, errors,
//	                           latency totals per route; epoch, journal
//	                           length, match/block gauges)
//	GET  /resolve?uri=U&uri=V  per-URI match lookup
//	POST /resolve              same, URIs from JSON {"uris": [...]}
//	GET  /resolve/stream       anytime re-resolution of the index's KB
//	                           pair as NDJSON, one confirmed pair per
//	                           line in decreasing quality, flushed as
//	                           written. Budget and scheduling via
//	                           budget_ms, max_pairs, max_comparisons,
//	                           and strategy=weight|blocks query params;
//	                           draining an unbudgeted stream yields
//	                           exactly the epoch's match set. An
//	                           epoch's first stream derives its stream
//	                           base from the index's blocks; later
//	                           ones reuse it
//	POST /delta?name=N&lenient=1
//	                           resolve an N-Triples delta (request body)
//	                           against the index's first KB
//	POST /upsert?side=2&lenient=1
//	                           absorb an N-Triples delta (request body)
//	                           into the index (requires WithMutations)
//	POST /delete               remove entities, JSON
//	                           {"side": 2, "uris": [...]} (requires
//	                           WithMutations)
//	GET  /journal?since=N      the mutation journal entries after epoch
//	                           N as streamed NDJSON (one journal
//	                           record per line, flushed as written,
//	                           see journal.go); 410 Gone
//	                           when Compact dropped them. Every
//	                           response carries the X-Minoaner-Epoch
//	                           and X-Minoaner-Compactions headers —
//	                           the replication cursor protocol.
//	GET  /snapshot             the full index snapshot (SaveIndex
//	                           bytes): the bootstrap/resync source for
//	                           replicas
//
// Error responses, 404/405s, and everything the mutation endpoints
// return carry Cache-Control: no-store — an intermediary must never
// serve a stale error or a pre-mutation match set from cache.
type server struct {
	ix      *Index
	mux     *http.ServeMux
	mutable bool
	replica *Replica
	metrics map[string]*endpointMetrics
	stream  streamMetrics
}

// streamMetrics aggregates the /resolve/stream traffic the per-route
// counters cannot express: how many pairs streamed out, and how long
// clients waited for the first one.
type streamMetrics struct {
	// pairs counts every NDJSON record written across all stream
	// requests.
	pairs atomic.Int64
	// firstMatches counts the requests that emitted at least one pair.
	firstMatches atomic.Int64
	// firstMatchMicros accumulates the time-to-first-match of those
	// requests; firstMatchMicros/firstMatches is the average TTFM.
	firstMatchMicros atomic.Int64
}

// endpointMetrics aggregates one route's traffic (lock-free; the map
// itself is fixed at construction).
type endpointMetrics struct {
	requests    atomic.Int64
	errors      atomic.Int64
	totalMicros atomic.Int64
}

// ServerOption customizes NewServer.
type ServerOption func(*server)

// WithMutations enables the /upsert and /delete endpoints. The index
// must be mutable (Index.Mutable); requests against a read-only server
// fail with 403.
func WithMutations() ServerOption {
	return func(s *server) { s.mutable = true }
}

// WithReplica attaches the replica whose replication progress the
// server exposes: /stats gains a replica object and /metrics the
// primary-epoch, lag, resync, and applied-entry series. The server
// itself stays read-only — a replica's mutations arrive through its
// journal-tailing loop, never over this handler.
func WithReplica(rep *Replica) ServerOption {
	return func(s *server) { s.replica = rep }
}

// Replication protocol headers: every /journal response reports the
// primary's current epoch and compaction count, captured atomically
// with the streamed entries.
const (
	headerEpoch       = "X-Minoaner-Epoch"
	headerCompactions = "X-Minoaner-Compactions"
)

// serveRoutes are the instrumented endpoint labels, in the order the
// /metrics exposition lists them.
var serveRoutes = []string{"healthz", "stats", "metrics", "resolve", "resolve_stream", "delta", "upsert", "delete", "journal", "snapshot", "other"}

// NewServer returns an http.Handler serving resolution queries over the
// index. It derives nothing up front: the first /delta decodes the
// snapshot's delta substrate, or derives it when the index has none
// (see Index.QueryKB), and every later one pays only for what its delta
// reaches.
func NewServer(ix *Index, opts ...ServerOption) http.Handler {
	s := &server{ix: ix, mux: http.NewServeMux(), metrics: make(map[string]*endpointMetrics, len(serveRoutes))}
	for _, opt := range opts {
		opt(s)
	}
	for _, route := range serveRoutes {
		s.metrics[route] = &endpointMetrics{}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /resolve", s.handleResolveGet)
	s.mux.HandleFunc("POST /resolve", s.handleResolvePost)
	s.mux.HandleFunc("GET /resolve/stream", s.handleResolveStream)
	s.mux.HandleFunc("POST /delta", s.handleDelta)
	s.mux.HandleFunc("POST /upsert", s.handleUpsert)
	s.mux.HandleFunc("POST /delete", s.handleDelete)
	s.mux.HandleFunc("GET /journal", s.handleJournal)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	return s
}

// routeLabel buckets a request path for the metrics map.
func routeLabel(path string) string {
	switch path {
	case "/healthz":
		return "healthz"
	case "/stats":
		return "stats"
	case "/metrics":
		return "metrics"
	case "/resolve":
		return "resolve"
	case "/resolve/stream":
		return "resolve_stream"
	case "/delta":
		return "delta"
	case "/upsert":
		return "upsert"
	case "/delete":
		return "delete"
	case "/journal":
		return "journal"
	case "/snapshot":
		return "snapshot"
	}
	return "other"
}

// statusWriter intercepts the response status so error responses —
// including the mux's own 404/405 — carry Cache-Control: no-store and
// are counted per endpoint.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		if code >= 400 {
			w.Header().Set("Cache-Control", "no-store")
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher, so streaming handlers (the /journal
// tail) push each record to the client as it is written instead of
// buffering the whole response until the handler returns.
func (w *statusWriter) Flush() {
	f, ok := w.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	f.Flush()
}

// Unwrap exposes the wrapped writer to http.ResponseController, which
// reaches optional interfaces (deadlines, hijacking) through it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	//minoaner:wallclock endpoint latency metric; feeds /metrics counters, never match output
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	m := s.metrics[routeLabel(r.URL.Path)]
	m.requests.Add(1)
	if sw.status >= 400 {
		m.errors.Add(1)
	}
	//minoaner:wallclock endpoint latency metric; feeds /metrics counters, never match output
	m.totalMicros.Add(time.Since(start).Microseconds())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; nothing to do on write failure
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	// The statusWriter adds Cache-Control: no-store for every >= 400
	// status; set it here too so writeError stays safe even when a
	// handler is mounted without the instrumented wrapper.
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"matches": len(s.ix.cur.Load().matches),
	})
}

// statsJSON mirrors IndexStats with JSON tags, extended with the
// serving-side epoch and traffic counters.
type statsJSON struct {
	KB1                    kbStatsJSON                  `json:"kb1"`
	KB2                    kbStatsJSON                  `json:"kb2"`
	Epoch                  uint64                       `json:"epoch"`
	JournalLength          int                          `json:"journal_length"`
	Mutable                bool                         `json:"mutable"`
	Matches                int                          `json:"matches"`
	ByName                 int                          `json:"by_name"`
	ByValue                int                          `json:"by_value"`
	ByRank                 int                          `json:"by_rank"`
	DiscardedByReciprocity int                          `json:"discarded_by_reciprocity"`
	NameBlocks             int                          `json:"name_blocks"`
	TokenBlocks            int                          `json:"token_blocks"`
	NameComparisons        int64                        `json:"name_comparisons"`
	TokenComparisons       int64                        `json:"token_comparisons"`
	PurgedBlocks           int                          `json:"purged_blocks"`
	Replica                *replicaStatsJSON            `json:"replica,omitempty"`
	Stream                 streamStatsJSON              `json:"stream"`
	Endpoints              map[string]endpointStatsJSON `json:"endpoints"`
}

// streamStatsJSON reports the /resolve/stream traffic: pairs streamed
// out, the average latency from request to first confirmed match, and
// how many stream bases were built (one per epoch that streamed).
type streamStatsJSON struct {
	PairsEmitted    int64 `json:"pairs_emitted"`
	FirstMatches    int64 `json:"first_matches"`
	AvgFirstMatchUS int64 `json:"avg_time_to_first_match_us"`
	BaseBuilds      int64 `json:"base_builds"`
}

// replicaStatsJSON reports a replica server's replication progress.
type replicaStatsJSON struct {
	Primary      string `json:"primary"`
	PrimaryEpoch uint64 `json:"primary_epoch"`
	LagEpochs    uint64 `json:"lag_epochs"`
	Resyncs      int64  `json:"resyncs"`
	Applied      int64  `json:"entries_applied"`
}

type endpointStatsJSON struct {
	Requests     int64 `json:"requests"`
	Errors       int64 `json:"errors"`
	AvgLatencyUS int64 `json:"avg_latency_us"`
}

type kbStatsJSON struct {
	Name     string `json:"name"`
	Entities int    `json:"entities"`
	Triples  int    `json:"triples"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	e := s.ix.cur.Load()
	st := s.ix.statsOf(e)
	endpoints := make(map[string]endpointStatsJSON, len(s.metrics))
	for route, m := range s.metrics {
		reqs := m.requests.Load()
		es := endpointStatsJSON{Requests: reqs, Errors: m.errors.Load()}
		if reqs > 0 {
			es.AvgLatencyUS = m.totalMicros.Load() / reqs
		}
		endpoints[route] = es
	}
	var replica *replicaStatsJSON
	if s.replica != nil {
		rs := s.replica.Status()
		replica = &replicaStatsJSON{
			Primary:      rs.Primary,
			PrimaryEpoch: rs.PrimaryEpoch,
			LagEpochs:    rs.Lag,
			Resyncs:      rs.Resyncs,
			Applied:      rs.Applied,
		}
	}
	stream := streamStatsJSON{
		PairsEmitted: s.stream.pairs.Load(),
		FirstMatches: s.stream.firstMatches.Load(),
		BaseBuilds:   s.ix.streamBaseBuilds.Load(),
	}
	if stream.FirstMatches > 0 {
		stream.AvgFirstMatchUS = s.stream.firstMatchMicros.Load() / stream.FirstMatches
	}
	if s.mutable || s.replica != nil {
		// Stats on a mutable (or replicating) server describe a moving
		// target.
		w.Header().Set("Cache-Control", "no-store")
	}
	writeJSON(w, http.StatusOK, statsJSON{
		KB1:                    kbStatsJSON{Name: e.kb1.Name(), Entities: st.KB1.Entities, Triples: st.KB1.Triples},
		KB2:                    kbStatsJSON{Name: e.kb2.Name(), Entities: st.KB2.Entities, Triples: st.KB2.Triples},
		Epoch:                  st.Epoch,
		JournalLength:          st.JournalLength,
		Mutable:                s.mutable && s.ix.Mutable(),
		Matches:                st.Matches,
		ByName:                 st.ByName,
		ByValue:                st.ByValue,
		ByRank:                 st.ByRank,
		DiscardedByReciprocity: st.DiscardedByReciprocity,
		NameBlocks:             st.NameBlocks,
		TokenBlocks:            st.TokenBlocks,
		NameComparisons:        st.NameComparisons,
		TokenComparisons:       st.TokenComparisons,
		PurgedBlocks:           st.PurgedBlocks,
		Replica:                replica,
		Stream:                 stream,
		Endpoints:              endpoints,
	})
}

// handleMetrics exposes the traffic counters and index gauges in
// Prometheus text exposition format. Routes are listed in serveRoutes
// order, so the output is deterministic for a given traffic state.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := s.ix.cur.Load()
	st := s.ix.statsOf(e)
	var b strings.Builder
	b.WriteString("# HELP minoaner_requests_total Requests served, by route.\n")
	b.WriteString("# TYPE minoaner_requests_total counter\n")
	for _, route := range serveRoutes {
		fmt.Fprintf(&b, "minoaner_requests_total{route=%q} %d\n", route, s.metrics[route].requests.Load())
	}
	b.WriteString("# HELP minoaner_request_errors_total Requests answered with status >= 400, by route.\n")
	b.WriteString("# TYPE minoaner_request_errors_total counter\n")
	for _, route := range serveRoutes {
		fmt.Fprintf(&b, "minoaner_request_errors_total{route=%q} %d\n", route, s.metrics[route].errors.Load())
	}
	b.WriteString("# HELP minoaner_request_duration_microseconds_total Cumulative request wall time, by route.\n")
	b.WriteString("# TYPE minoaner_request_duration_microseconds_total counter\n")
	for _, route := range serveRoutes {
		fmt.Fprintf(&b, "minoaner_request_duration_microseconds_total{route=%q} %d\n", route, s.metrics[route].totalMicros.Load())
	}
	streamSeries := []struct {
		name, help string
		value      int64
	}{
		{"minoaner_stream_pairs_total", "Confirmed pairs emitted by /resolve/stream responses.", s.stream.pairs.Load()},
		{"minoaner_stream_first_match_total", "/resolve/stream requests that emitted at least one pair.", s.stream.firstMatches.Load()},
		{"minoaner_stream_time_to_first_match_microseconds_total", "Cumulative latency to the first emitted pair, over first-match requests.", s.stream.firstMatchMicros.Load()},
		{"minoaner_stream_base_builds_total", "Stream bases built: one per epoch that served /resolve/stream; every other stream reused one.", s.ix.streamBaseBuilds.Load()},
	}
	for _, c := range streamSeries {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}
	mutable := 0
	if s.mutable && s.ix.Mutable() {
		mutable = 1
	}
	gauges := []struct {
		name, help string
		value      int64
	}{
		{"minoaner_epoch", "Current index epoch (0 = fresh build, +1 per absorbed mutation).", int64(st.Epoch)},
		{"minoaner_journal_length", "Mutation journal entries since the last compaction.", int64(st.JournalLength)},
		{"minoaner_mutable", "Whether this server accepts /upsert and /delete.", int64(mutable)},
		{"minoaner_matches", "Resolved match pairs in the current epoch.", int64(st.Matches)},
		{"minoaner_kb1_entities", "Entities in the first indexed KB.", int64(st.KB1.Entities)},
		{"minoaner_kb2_entities", "Entities in the second indexed KB.", int64(st.KB2.Entities)},
		{"minoaner_name_blocks", "Name blocks (|B_N|).", int64(st.NameBlocks)},
		{"minoaner_token_blocks", "Token blocks after purging (|B_T|).", int64(st.TokenBlocks)},
		{"minoaner_name_comparisons", "Name block comparisons (||B_N||).", st.NameComparisons},
		{"minoaner_token_comparisons", "Token block comparisons after purging (||B_T||).", st.TokenComparisons},
		{"minoaner_purged_blocks", "Token blocks removed by Block Purging.", int64(st.PurgedBlocks)},
	}
	for _, g := range gauges {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.value)
	}
	if s.replica != nil {
		rs := s.replica.Status()
		repSeries := []struct {
			name, typ, help string
			value           int64
		}{
			{"minoaner_replica_primary_epoch", "gauge", "Primary epoch last observed by the journal-tailing loop.", int64(rs.PrimaryEpoch)},
			{"minoaner_replica_lag_epochs", "gauge", "Epochs the replica trails the primary (0 = caught up).", int64(rs.Lag)},
			{"minoaner_replica_resyncs_total", "counter", "Full snapshot resyncs after journal truncation or divergence.", rs.Resyncs},
			{"minoaner_replica_entries_applied_total", "counter", "Journal entries applied through Replay.", rs.Applied},
		}
		for _, g := range repSeries {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", g.name, g.help, g.name, g.typ, g.name, g.value)
		}
	}
	if s.mutable || s.replica != nil {
		w.Header().Set("Cache-Control", "no-store")
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// matchJSON is one resolved pair.
type matchJSON struct {
	URI1 string `json:"uri1"`
	URI2 string `json:"uri2"`
}

// queryResultJSON answers one queried URI.
type queryResultJSON struct {
	URI     string      `json:"uri"`
	In1     bool        `json:"in_kb1"`
	In2     bool        `json:"in_kb2"`
	Matches []matchJSON `json:"matches"`
}

type resolveResponseJSON struct {
	Results []queryResultJSON `json:"results"`
}

// maxResolveURIs bounds one /resolve request; batches beyond it should
// be split client-side.
const maxResolveURIs = 10000

func (s *server) resolve(w http.ResponseWriter, uris []string) {
	if len(uris) == 0 {
		writeError(w, http.StatusBadRequest, "no URIs given: pass uri= query parameters or a JSON body {\"uris\": [...]}")
		return
	}
	if len(uris) > maxResolveURIs {
		writeError(w, http.StatusRequestEntityTooLarge, "%d URIs in one request (limit %d)", len(uris), maxResolveURIs)
		return
	}
	results := s.ix.Query(uris...)
	resp := resolveResponseJSON{Results: make([]queryResultJSON, len(results))}
	for i, qr := range results {
		out := queryResultJSON{URI: qr.URI, In1: qr.In1, In2: qr.In2, Matches: []matchJSON{}}
		for _, m := range qr.Matches {
			out.Matches = append(out.Matches, matchJSON{URI1: m.URI1, URI2: m.URI2})
		}
		resp.Results[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleResolveGet(w http.ResponseWriter, r *http.Request) {
	s.resolve(w, r.URL.Query()["uri"])
}

// maxResolveBytes bounds one POST /resolve or /delete body.
const maxResolveBytes = 16 << 20

// decodeJSONBody decodes a JSON request body of at most maxResolveBytes
// into v. On failure it writes the error response — 413 for an
// oversized body, 400 for anything else — and reports false.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResolveBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxResolveBytes)
	} else {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
	}
	return false
}

func (s *server) handleResolvePost(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URIs []string `json:"uris"`
	}
	if !decodeJSONBody(w, r, &body) {
		return
	}
	s.resolve(w, body.URIs)
}

// streamPairJSON is one NDJSON record of the /resolve/stream response.
type streamPairJSON struct {
	URI1      string  `json:"uri1"`
	URI2      string  `json:"uri2"`
	Score     float64 `json:"score"`
	Heuristic string  `json:"heuristic"`
}

// appendStreamRecord appends r's NDJSON record to dst: byte for byte
// what json.Encoder writes for it, HTML escaping and trailing newline
// included, for a finite score. Plain-ASCII strings and scores that
// encoding/json prints without an exponent take the fast path, and
// anything else goes through json.Marshal of that one value.
func appendStreamRecord(dst []byte, r streamPairJSON) []byte {
	dst = append(dst, `{"uri1":`...)
	dst = appendJSONString(dst, r.URI1)
	dst = append(dst, `,"uri2":`...)
	dst = appendJSONString(dst, r.URI2)
	dst = append(dst, `,"score":`...)
	if a := math.Abs(r.Score); a == 0 || (a >= 1e-6 && a < 1e21) {
		dst = strconv.AppendFloat(dst, r.Score, 'f', -1, 64) // encoding/json's format in this range
	} else {
		dst = appendMarshaled(dst, r.Score)
	}
	dst = append(dst, `,"heuristic":`...)
	dst = appendJSONString(dst, r.Heuristic)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string, escaped as json.Marshal
// escapes it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshaled(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendMarshaled appends json.Marshal(v); v is a string or a finite
// float64, which always marshal.
func appendMarshaled(dst []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(dst, b...)
}

// maxStreamBudgetMillis caps /resolve/stream's budget_ms at 24 h: far
// past any real budget, far below where the millisecond-to-Duration
// conversion overflows into a deadline in the past.
const maxStreamBudgetMillis = 24 * 60 * 60 * 1000

// handleResolveStream re-resolves the index's KB pair as an anytime
// stream: one NDJSON record per confirmed pair, best pairs first. The
// first record is flushed at once, later ones whenever no next pair is
// ready: pairs confirmed back to back share a write, and none waits
// while the producer computes, so a latency-budgeted client acts on
// each match the moment it is confirmed. budget_ms bounds wall clock
// (as a deadline on the resolving context), max_pairs and
// max_comparisons bound work, and strategy selects the pair scheduler
// (weight — the default — or blocks). Draining an unbudgeted stream
// yields exactly the epoch's match set. Each record is appended into
// one reused buffer by appendStreamRecord, the bytes json.Encoder would
// write, without reflecting over each pair.
func (s *server) handleResolveStream(w http.ResponseWriter, r *http.Request) {
	//minoaner:wallclock time-to-first-match metric; feeds /stats and /metrics, never match output
	start := time.Now()
	q := r.URL.Query()
	var opts []StreamOption
	if raw := q.Get("max_pairs"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid max_pairs=%q: want a positive integer", raw)
			return
		}
		opts = append(opts, WithMaxPairs(n))
	}
	if raw := q.Get("max_comparisons"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid max_comparisons=%q: want a positive integer", raw)
			return
		}
		opts = append(opts, WithMaxComparisons(n))
	}
	switch q.Get("strategy") {
	case "", "weight":
		// WeightOrdered is the default.
	case "blocks":
		opts = append(opts, WithStreamStrategy(BlockRoundRobin))
	default:
		writeError(w, http.StatusBadRequest, "invalid strategy=%q: want weight or blocks", q.Get("strategy"))
		return
	}
	ctx := r.Context()
	if raw := q.Get("budget_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 1 || ms > maxStreamBudgetMillis {
			writeError(w, http.StatusBadRequest, "invalid budget_ms=%q: want an integer in [1, %d]", raw, maxStreamBudgetMillis)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	// Every parameter is validated above, so what can still fail is the
	// epoch's first stream decoding a corrupt mapped section for its base
	// — before the status line goes out, so the client sees the 500.
	ch, err := s.ix.resolveStream(ctx, opts...)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A budget-truncated response is complete for its budget but must
	// never be served from a cache as "the" match set.
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var rec []byte // the record being written, its buffer reused
	flusher, _ := w.(http.Flusher)
	emitted := int64(0)
	for {
		var sp ScoredPair
		var ok bool
		select {
		case sp, ok = <-ch:
		default:
			// No pair is ready: push out what was written before waiting,
			// so no pair waits on the computation of the next.
			if emitted > 0 && flusher != nil {
				flusher.Flush()
			}
			sp, ok = <-ch
		}
		if !ok {
			return
		}
		if emitted == 0 {
			s.stream.firstMatches.Add(1)
			//minoaner:wallclock time-to-first-match metric; feeds /stats and /metrics, never match output
			s.stream.firstMatchMicros.Add(time.Since(start).Microseconds())
		}
		rec = appendStreamRecord(rec[:0], streamPairJSON{URI1: sp.URI1, URI2: sp.URI2, Score: sp.Score, Heuristic: sp.Heuristic})
		if _, err := w.Write(rec); err != nil {
			// Client went away mid-stream. Returning cancels r.Context(),
			// which stops the resolving goroutine.
			return
		}
		emitted++
		s.stream.pairs.Add(1)
		if emitted == 1 && flusher != nil {
			flusher.Flush() // the first match goes out at once
		}
	}
}

// deltaResponseJSON reports a /delta resolution.
type deltaResponseJSON struct {
	Name         string      `json:"name"`
	Entities     int         `json:"entities"`
	Matches      []matchJSON `json:"matches"`
	SkippedLines int         `json:"skipped_lines,omitempty"`
}

// maxDeltaBytes bounds one /delta or /upsert body: the endpoints absorb
// small deltas, not bulk re-ingests.
const maxDeltaBytes = 64 << 20

func (s *server) handleDelta(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "delta"
	}
	lenient := r.URL.Query().Get("lenient") == "1"
	delta, skipped, err := loadKB(name, http.MaxBytesReader(w, r.Body, maxDeltaBytes), lenient)
	if err != nil {
		writeDeltaError(w, r, "parsing", err)
		return
	}
	res, err := s.ix.QueryKB(r.Context(), delta)
	if err != nil {
		writeDeltaError(w, r, "resolving", err)
		return
	}
	resp := deltaResponseJSON{
		Name:         name,
		Entities:     delta.Len(),
		Matches:      []matchJSON{},
		SkippedLines: skipped,
	}
	for _, m := range res.Matches {
		resp.Matches = append(resp.Matches, matchJSON{URI1: m.URI1, URI2: m.URI2})
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeDeltaError maps a failed /delta step (parsing or resolving the
// body) to its status: an oversized body is 413, a damaged snapshot
// 500, a cancelled request 503, anything else the client's fault.
func writeDeltaError(w http.ResponseWriter, r *http.Request, step string, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "delta exceeds %d bytes", maxDeltaBytes)
	case errors.Is(err, ErrSnapshotCorrupt):
		writeError(w, http.StatusInternalServerError, "%v", err)
	case r.Context().Err() != nil:
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeError(w, http.StatusBadRequest, "%s delta: %v", step, err)
	}
}

// mutationResponseJSON reports an absorbed mutation.
type mutationResponseJSON struct {
	Epoch        uint64 `json:"epoch"`
	Side         int    `json:"side"`
	Subjects     int    `json:"subjects"`
	Matches      int    `json:"matches"`
	SkippedLines int    `json:"skipped_lines,omitempty"`
	NoOp         bool   `json:"no_op,omitempty"`
}

// requireMutable guards the mutation endpoints.
func (s *server) requireMutable(w http.ResponseWriter) bool {
	if !s.mutable {
		writeError(w, http.StatusForbidden, "mutations are disabled on this server (start it with -mutable)")
		return false
	}
	if !s.ix.Mutable() {
		writeError(w, http.StatusConflict, "index is not mutable: its snapshot predates source retention; rebuild it from sources")
		return false
	}
	return true
}

// parseSide reads the side query/body parameter (default 2: the
// "delta" side).
func parseSide(raw string) (int, error) {
	switch raw {
	case "", "2":
		return 2, nil
	case "1":
		return 1, nil
	}
	return 0, fmt.Errorf("side must be 1 or 2, got %q", raw)
}

func (s *server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	// Mutation responses must never be cached, success included: they
	// describe a state transition, not a resource.
	w.Header().Set("Cache-Control", "no-store")
	if !s.requireMutable(w) {
		return
	}
	side, err := parseSide(r.URL.Query().Get("side"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lenient := r.URL.Query().Get("lenient") == "1"
	delta, skipped, err := loadKB("upsert", http.MaxBytesReader(w, r.Body, maxDeltaBytes), lenient)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "delta exceeds %d bytes", maxDeltaBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "parsing upsert delta: %v", err)
		return
	}
	if delta.Len() == 0 {
		writeError(w, http.StatusBadRequest, "upsert delta contains no entities")
		return
	}
	out, err := s.ix.applyMutation(r.Context(), side, delta, nil)
	if err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponseJSON{
		Epoch:        out.epoch,
		Side:         side,
		Subjects:     delta.Len(),
		Matches:      out.matches,
		SkippedLines: skipped,
		NoOp:         out.noop,
	})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if !s.requireMutable(w) {
		return
	}
	var body struct {
		Side int      `json:"side"`
		URIs []string `json:"uris"`
	}
	if !decodeJSONBody(w, r, &body) {
		return
	}
	if body.Side == 0 {
		body.Side = 2
	}
	if body.Side != 1 && body.Side != 2 {
		writeError(w, http.StatusBadRequest, "side must be 1 or 2, got %d", body.Side)
		return
	}
	if len(body.URIs) == 0 {
		writeError(w, http.StatusBadRequest, "no URIs given: pass a JSON body {\"side\": 2, \"uris\": [...]}")
		return
	}
	out, err := s.ix.applyMutation(r.Context(), body.Side, nil, body.URIs)
	if err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponseJSON{
		Epoch:    out.epoch,
		Side:     body.Side,
		Subjects: len(body.URIs),
		Matches:  out.matches,
		NoOp:     out.noop,
	})
}

// handleJournal streams the journal tail after the given cursor as
// NDJSON, one journal record (journal.go) per line, flushed as written
// so a tailing replica sees entries without waiting for the response
// to finish. The response headers carry the epoch and compaction count
// the entries lead to; a cursor Compact has truncated past answers 410
// Gone.
func (s *server) handleJournal(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid since=%q: %v", raw, err)
			return
		}
		since = v
	}
	tail, err := s.ix.JournalSince(since)
	w.Header().Set(headerEpoch, strconv.FormatUint(tail.Epoch, 10))
	w.Header().Set(headerCompactions, strconv.FormatUint(tail.Compactions, 10))
	w.Header().Set("Cache-Control", "no-store")
	if err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for i := range tail.Entries {
		if _, err := w.Write(append(encodeJournalRecord(&tail.Entries[i]), '\n')); err != nil {
			return // client went away mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleSnapshot streams the index snapshot (SaveIndex bytes): the
// bootstrap and resync source for replicas. Every section is
// checksummed, so a transfer cut short fails the client's LoadIndex
// instead of silently corrupting it. The write side is briefly
// excluded while the snapshot streams (readers are unaffected), so the
// bytes always describe one consistent epoch/journal pair.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	out := &writeTracker{Writer: w}
	// A failure before the first byte (a damaged mapped section) still
	// gets its status; on a mid-stream failure the status line is
	// already out, and the truncated body fails the client's checksum
	// verification.
	if err := SaveIndex(out, s.ix); err != nil && !out.wrote {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// writeTracker records whether anything was written through it.
type writeTracker struct {
	io.Writer
	wrote bool
}

func (t *writeTracker) Write(p []byte) (int, error) {
	t.wrote = true
	return t.Writer.Write(p)
}

func (s *server) writeMutationError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrNotMutable):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrSnapshotCorrupt):
		writeError(w, http.StatusInternalServerError, "%v", err)
	case r.Context().Err() != nil:
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeError(w, http.StatusBadRequest, "applying mutation: %v", err)
	}
}
