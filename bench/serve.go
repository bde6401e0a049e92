package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"minoaner"
	"minoaner/internal/binio"
	"minoaner/internal/core"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
	"minoaner/internal/rdf"
)

// served is what the three server workloads share: a generated pair, the
// 80/20 split of its second KB, a snapshot of the 80 % built by the
// `minoaner snapshot` child, and a `minoaner serve` child over it.
type served struct {
	e       *env
	p       *pair
	s       *split
	snap    string
	snapMB  float64
	snapDur time.Duration
	srv     *server
}

// prepare generates the inputs and builds the snapshot.
func (sv *served) prepare(e *env, dataset string, scale float64) (err error) {
	sv.e = e
	if sv.p, err = generate(e, dataset, scale); err != nil {
		return err
	}
	start := time.Now()
	if sv.s, err = holdOut(e, sv.p); err != nil {
		return err
	}
	sv.p.took += time.Since(start)
	if sv.snap, sv.snapDur, err = snapshot(e, sv.p, sv.s); err != nil {
		return err
	}
	info, err := os.Stat(sv.snap)
	if err != nil {
		return err
	}
	sv.snapMB = float64(info.Size()) / (1 << 20)
	return nil
}

func (sv *served) tearDown() {
	if sv.srv != nil {
		sv.srv.stop()
		sv.srv = nil
	}
}

func (sv *served) setUpParts() (datagen, snapshot time.Duration) { return sv.p.took, sv.snapDur }

// newClient returns an HTTP client that keeps one connection, so a
// client goroutine is one caller on one socket.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}
}

// call sends one request and reads the whole answer. A nil body sends a
// GET, anything else a POST.
func call(c *http.Client, url string, body []byte) (status int, answer []byte, err error) {
	var resp *http.Response
	if body == nil {
		resp, err = c.Get(url)
	} else {
		resp, err = c.Post(url, "application/n-triples", bytes.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(resp.Body)
	return resp.StatusCode, answer, err
}

// matchJSON and the two answer shapes mirror what serve.go writes.
type matchJSON struct {
	URI1 string `json:"uri1"`
	URI2 string `json:"uri2"`
}

type lookupAnswer struct {
	Results []struct {
		In1     bool        `json:"in_kb1"`
		In2     bool        `json:"in_kb2"`
		Matches []matchJSON `json:"matches"`
	} `json:"results"`
}

type deltaAnswer struct {
	Matches []matchJSON `json:"matches"`
}

func sameMatches(got []matchJSON, want []minoaner.Match) bool {
	if len(got) != len(want) {
		return false
	}
	key := func(u1, u2 string) string { return u1 + "\x00" + u2 }
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range got {
		g[i] = key(got[i].URI1, got[i].URI2)
		w[i] = key(want[i].URI1, want[i].URI2)
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// opKind is one of the three request classes of the serve-read mix.
type opKind uint8

const (
	opLookup  opKind = iota // GET /resolve?uri= of an indexed URI
	opDelta                 // POST /delta with one held-out entity
	opDelta32               // POST /delta with 32 held-out entities
)

// readCycle is the fixed mix: 12 lookups, 7 single-entity deltas and one
// 32-entity delta in every 20 requests.
var readCycle = [20]opKind{
	opLookup, opLookup, opDelta, opLookup, opLookup, opDelta, opLookup, opLookup, opDelta, opLookup,
	opDelta32, opLookup, opDelta, opLookup, opLookup, opDelta, opLookup, opDelta, opLookup, opDelta,
}

// readOp is one scheduled request: its class and which entry of that
// class's pool it sends.
type readOp struct {
	kind opKind
	idx  uint16
}

// readSchedule is the seeded request stream of serve-read. Requests
// draw from small pools so every answer can be checked against the
// oracle afterwards: the first answer of each pool entry is kept and
// every later one must equal it.
type readSchedule struct {
	lookups []string // request paths
	singles [][]byte // bodies
	batches [][]byte // bodies
	clients [][]readOp
}

const (
	readClients  = 2
	readPool     = 256
	batchPool    = 16
	batchSize    = 32
	roundOpsFull = 2000 // requests per client per round at factor 1
)

func roundOps(e *env) int {
	n := int(roundOpsFull * e.factor)
	n -= n % len(readCycle)
	return max(n, len(readCycle))
}

func newReadSchedule(e *env, s *split) *readSchedule {
	rng := rand.New(rand.NewSource(e.seed))
	rs := &readSchedule{}
	for _, uri := range s.indexed[:min(readPool, len(s.indexed))] {
		rs.lookups = append(rs.lookups, "/resolve?uri="+url.QueryEscape(uri))
	}
	for _, ent := range s.held[:min(readPool, len(s.held))] {
		rs.singles = append(rs.singles, ent.body)
	}
	for i := 0; i < batchPool; i++ {
		var body []byte
		for _, j := range rng.Perm(len(s.held))[:min(batchSize, len(s.held))] {
			body = append(body, s.held[j].body...)
		}
		rs.batches = append(rs.batches, body)
	}
	pools := [...]int{opLookup: len(rs.lookups), opDelta: len(rs.singles), opDelta32: len(rs.batches)}
	for c := 0; c < readClients; c++ {
		ops := make([]readOp, roundOps(e))
		for i := range ops {
			kind := readCycle[i%len(readCycle)]
			ops[i] = readOp{kind: kind, idx: uint16(rng.Intn(pools[kind]))}
		}
		rs.clients = append(rs.clients, ops)
	}
	return rs
}

// bytes serializes the schedule: equal seeds must give equal bytes.
func (rs *readSchedule) bytes() []byte {
	var b bytes.Buffer
	for _, u := range rs.lookups {
		b.WriteString(u)
		b.WriteByte('\n')
	}
	for _, body := range append(append([][]byte{}, rs.singles...), rs.batches...) {
		b.Write(body)
		b.WriteByte(0)
	}
	for _, ops := range rs.clients {
		for _, op := range ops {
			b.WriteByte(byte(op.kind))
			binary.Write(&b, binary.LittleEndian, op.idx)
		}
	}
	return b.Bytes()
}

func (rs *readSchedule) request(base string, op readOp) (url string, body []byte) {
	switch op.kind {
	case opLookup:
		return base + rs.lookups[op.idx], nil
	case opDelta:
		return base + "/delta", rs.singles[op.idx]
	}
	return base + "/delta", rs.batches[op.idx]
}

// serveRead is the serve-read workload.
type serveRead struct {
	served
	sched *readSchedule
}

const serveReadScale = 2

func (w *serveRead) setUp(e *env) (err error) {
	if err = w.prepare(e, "YAGO-IMDb", serveReadScale); err != nil {
		return err
	}
	if w.srv, err = startServer(e.bin, "-index", w.snap); err != nil {
		return err
	}
	w.sched = newReadSchedule(e, w.s)
	// Warm-up: one request of each class, so the mapped snapshot's lazy
	// sections are decoded before anything is timed.
	c := newClient()
	defer c.CloseIdleConnections()
	for kind := opLookup; kind <= opDelta32; kind++ {
		url, body := w.sched.request(w.srv.base, readOp{kind: kind})
		if status, answer, err := call(c, url, body); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up request %s: status %d, %v\n%s", url, status, err, answer)
		}
	}
	return nil
}

// coldStarts times spawn -> first /delta answered with 200, n times. The
// snapshot was just written and served, so the page cache is warm.
func (w *serveRead) coldStarts(o *outcome, n int) []float64 {
	var took []float64
	c := newClient()
	defer c.CloseIdleConnections()
	for i := 0; i < n; i++ {
		o.attempted++
		s, err := spawnServer(w.e.bin, "-index", w.snap)
		if err != nil {
			o.fail("cold start: %v", err)
			continue
		}
		err = s.until(func() bool {
			status, _, err := call(c, s.base+"/delta", w.sched.singles[0])
			return err == nil && status == http.StatusOK
		})
		elapsed := time.Since(s.spawn)
		if err != nil {
			o.fail("cold start: %v", err)
			continue
		}
		s.kill()
		c.CloseIdleConnections()
		took = append(took, ms(elapsed))
	}
	return took
}

// readRound is what one client saw in one round.
type readRound struct {
	lat   [3][]float64 // µs, by opKind
	fails []string
}

// firstAnswers keeps, per pool entry, the first answer a client got and
// how many requests hit the entry.
type firstAnswers struct {
	body map[readOp][]byte
	hits map[readOp]int
}

func (w *serveRead) clientRound(c *http.Client, ops []readOp, seen *firstAnswers) readRound {
	var r readRound
	for _, op := range ops {
		url, body := w.sched.request(w.srv.base, op)
		t0 := time.Now()
		status, answer, err := call(c, url, body)
		lat := time.Since(t0)
		seen.hits[op]++
		switch first, ok := seen.body[op]; {
		case err != nil || status != http.StatusOK:
			r.fails = append(r.fails, fmt.Sprintf("%s: status %d, %v", url, status, err))
			continue
		case !ok:
			seen.body[op] = answer
		case !bytes.Equal(first, answer):
			r.fails = append(r.fails, fmt.Sprintf("%s: answer changed between requests", url))
			continue
		}
		r.lat[op.kind] = append(r.lat[op.kind], us(lat))
	}
	return r
}

const coldStartReps = 4 // per set-up

func (w *serveRead) measure(seconds time.Duration) (*outcome, error) {
	o := newOutcome()
	if cold := w.coldStarts(o, coldStartReps); len(cold) > 0 {
		o.observe("first_result_ms", "ms", len(cold), cold...)
	}

	clients := make([]*http.Client, readClients)
	seen := make([]*firstAnswers, readClients)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
		seen[i] = &firstAnswers{body: map[readOp][]byte{}, hits: map[readOp]int{}}
	}
	deadline := time.Now().Add(seconds)
	for rounds := 0; time.Now().Before(deadline) || rounds == 0; rounds++ {
		cpu0, err := w.srv.cpu()
		if err != nil {
			return nil, err
		}
		results := make([]readRound, readClients)
		var wg sync.WaitGroup
		start := time.Now()
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = w.clientRound(clients[i], w.sched.clients[i], seen[i])
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		cpu1, err := w.srv.cpu()
		if err != nil {
			return nil, err
		}
		var lat [3][]float64
		done := 0
		for i, r := range results {
			o.attempted += len(w.sched.clients[i])
			for _, f := range r.fails {
				o.fail("%s", f)
			}
			for k := range lat {
				lat[k] = append(lat[k], r.lat[k]...)
				done += len(r.lat[k])
			}
		}
		if len(lat[opLookup]) == 0 || len(lat[opDelta]) == 0 || len(lat[opDelta32]) == 0 {
			continue // every request of a class failed; nothing to report for the round
		}
		delta50 := percentile(lat[opDelta], 50)
		o.observe("op_p50_ms", "ms", len(lat[opDelta]), delta50/1000)
		o.observe("throughput_ops", "1/s", done, float64(done)/wall.Seconds())
		o.observe("cpu_ms_per_op", "ms", done, ms(cpu1-cpu0)/float64(done))
		o.observe("lookup_p50_us", "us", len(lat[opLookup]), percentile(lat[opLookup], 50))
		o.observe("delta_p50_us", "us", len(lat[opDelta]), delta50)
		o.observe("delta_p99_us", "us", len(lat[opDelta]), percentile(lat[opDelta], 99))
		o.observe("delta32_p50_ms", "ms", len(lat[opDelta32]), percentile(lat[opDelta32], 50)/1000)
	}
	rss, err := w.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.observe("peak_rss_mb", "MB", 1, rss)
	o.observe("snapshot_mb", "MB", 1, w.snapMB)
	w.checkAnswers(o, seen)
	return o, nil
}

// deltaOracleSample is how many single-entity /delta answers each
// set-up checks against the full plan, which costs a whole resolution
// apiece: 21 in a run.
const deltaOracleSample = 7

// checkAnswers compares what the server said with the same snapshot
// opened in this process: every lookup with Index.Query, a sample of
// deltas with Index.QueryKBFull, the full-plan oracle. A wrong pool entry
// fails every request that drew it.
func (w *serveRead) checkAnswers(o *outcome, seen []*firstAnswers) {
	ix, err := minoaner.OpenIndexFile(w.snap)
	if err != nil {
		o.failAll("opening the snapshot as the oracle: %v", err)
		return
	}
	defer ix.Close()
	first := map[readOp][]byte{}
	hits := map[readOp]int{}
	for _, s := range seen {
		for op, n := range s.hits {
			hits[op] += n
		}
		for op, body := range s.body {
			if prev, ok := first[op]; ok && !bytes.Equal(prev, body) {
				o.failN(hits[op], "pool entry %v: the two clients got different answers", op)
			}
			first[op] = body
		}
	}
	ops := make([]readOp, 0, len(first))
	for op := range first {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		return ops[i].kind < ops[j].kind || ops[i].kind == ops[j].kind && ops[i].idx < ops[j].idx
	})
	checkedDeltas := 0
	for _, op := range ops {
		switch op.kind {
		case opLookup:
			uri := w.s.indexed[op.idx]
			var got lookupAnswer
			want := ix.Query(uri)[0]
			if err := json.Unmarshal(first[op], &got); err != nil || len(got.Results) != 1 ||
				got.Results[0].In1 != want.In1 || got.Results[0].In2 != want.In2 ||
				!sameMatches(got.Results[0].Matches, want.Matches) {
				o.failN(hits[op], "lookup of %s differs from Index.Query", uri)
			}
		case opDelta:
			if checkedDeltas == deltaOracleSample {
				continue
			}
			checkedDeltas++
			delta, err := minoaner.LoadKB("delta", bytes.NewReader(w.sched.singles[op.idx]))
			if err != nil {
				o.failN(hits[op], "parsing delta %d: %v", op.idx, err)
				continue
			}
			want, err := ix.QueryKBFull(context.Background(), delta)
			var got deltaAnswer
			if err != nil || json.Unmarshal(first[op], &got) != nil || !sameMatches(got.Matches, want.Matches) {
				o.failN(hits[op], "delta of %s differs from Index.QueryKBFull (%v)", w.s.held[op.idx].uri, err)
			}
		}
	}
}

// replay runs the serve-read path once in this process: what set-up
// builds, what a cold start opens, and every request class against the
// library and against the HTTP handler without a socket.
func (w *serveRead) replay(rec *recorder) error {
	ctx := context.Background()
	ix, err := buildIndex(rec, w.p.kb1, w.s.base)
	if err != nil {
		return err
	}
	rec.do("minoaner", "minoaner/prepare", ix.Prepare)
	snap := w.snap + ".replay"
	defer os.Remove(snap)
	rec.do("minoaner", "minoaner/save", func() { err = minoaner.SaveIndexFile(snap, ix) })
	if err != nil {
		return err
	}
	if err := replayOpen(rec, snap, w.sched.singles[0]); err != nil {
		return err
	}

	// The blocking substrate on its own, for its size and for the
	// stage-level delta runs below.
	k1, err := loadKB(nil, "KB1", w.p.kb1)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	var prep *pipeline.Prepared
	rec.do("pipeline", "pipeline/prepare-side", func() { prep = pipeline.PrepareSide(k1, cfg.Params()) })
	var size countWriter
	if err := prep.Blocks.WriteBinary(&size); err != nil {
		return err
	}
	rec.count("blocking.prepared_mb", float64(size)/(1<<20))
	var kbImage bytes.Buffer
	if err := k1.WriteBinary(&kbImage); err != nil {
		return err
	}
	for i := 0; i < openReps; i++ {
		rec.do("kb", "kb/open-binary", func() { _, err = kb.OpenBinary(kbImage.Bytes()) })
		if err != nil {
			return err
		}
	}

	// Lookups are too short to time one by one: the span's own clock
	// reads would be a large part of each.
	rec.do("minoaner", "minoaner/query-all", func() {
		for rep := 0; rep < queryReps; rep++ {
			for _, uri := range w.s.indexed[:len(w.sched.lookups)] {
				ix.Query(uri)
			}
		}
	})
	rec.count("minoaner.queries", float64(queryReps*len(w.sched.lookups)))

	handler := minoaner.NewServer(ix)
	var jsonBytes, answers float64
	serve := func(name, url string, body []byte) error {
		method, rd := http.MethodGet, io.Reader(nil)
		if body != nil {
			method, rd = http.MethodPost, bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, url, rd)
		resp := httptest.NewRecorder()
		rec.do("minoaner", name, func() { handler.ServeHTTP(resp, req) })
		if resp.Code != http.StatusOK {
			return fmt.Errorf("handler %s %s: status %d", method, url, resp.Code)
		}
		jsonBytes += float64(resp.Body.Len())
		answers++
		return nil
	}
	for _, op := range w.sched.clients[0][:min(replayOps, len(w.sched.clients[0]))] {
		rec.nextOp()
		url, body := w.sched.request("", op)
		switch op.kind {
		case opLookup:
			err = serve("minoaner/handler-lookup", url, nil)
		case opDelta:
			var delta *minoaner.KB
			rec.do("minoaner", "minoaner/delta-parse", func() { delta, err = minoaner.LoadKB("delta", bytes.NewReader(body)) })
			if err != nil {
				return err
			}
			rec.do("minoaner", "minoaner/querykb", func() { _, err = ix.QueryKB(ctx, delta) })
			if err != nil {
				return err
			}
			if err = deltaStages(rec, prep, body, cfg); err != nil {
				return err
			}
			err = serve("minoaner/handler-delta", url, body)
		case opDelta32:
			var delta *minoaner.KB
			if delta, err = minoaner.LoadKB("delta", bytes.NewReader(body)); err != nil {
				return err
			}
			rec.do("minoaner", "minoaner/querykb32", func() { _, err = ix.QueryKB(ctx, delta) })
		}
		if err != nil {
			return err
		}
	}
	if answers > 0 {
		rec.count("minoaner.handler_json_bytes", jsonBytes/answers)
	}
	return nil
}

const (
	replayOps = 200 // requests of the schedule the traced run replays
	queryReps = 20  // passes over the lookup pool the traced run times as one span
	openReps  = 10  // opens of each kind the traced run times
)

// countWriter counts the bytes written to it.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// buildIndex loads two KB files and resolves them into an index, as
// `minoaner snapshot` does before it saves.
func buildIndex(rec *recorder, path1, path2 string) (ix *minoaner.Index, err error) {
	var kb1, kb2 *minoaner.KB
	rec.do("minoaner", "minoaner/load-kbs", func() {
		if kb1, err = minoaner.LoadKBFile("KB1", path1); err == nil {
			kb2, err = minoaner.LoadKBFile("KB2", path2)
		}
	})
	if err != nil {
		return nil, err
	}
	rec.do("minoaner", "minoaner/build-index", func() { ix, err = minoaner.BuildIndex(kb1, kb2, minoaner.DefaultConfig()) })
	return ix, err
}

// replayOpen times what a cold start does with a snapshot file: map it,
// verify every section, open it lazily, load it eagerly, and answer a
// first delta from a fresh mapping.
func replayOpen(rec *recorder, snap string, firstDelta []byte) error {
	header, err := os.ReadFile(snap)
	if err != nil {
		return err
	}
	var magic [4]byte
	copy(magic[:], header)
	version, _ := binary.Uvarint(header[4:])
	for i := 0; i < openReps; i++ {
		var m *binio.Map
		rec.do("binio", "binio/map-open", func() { m, err = binio.OpenMap(snap, magic, version) })
		if err != nil {
			return err
		}
		if i == 0 {
			rec.do("binio", "binio/crc-all", func() {
				for _, id := range m.SectionIDs() {
					if _, err = m.Section(id); err != nil {
						return
					}
				}
			})
		}
		m.Close()
		if err != nil {
			return err
		}
		var ix *minoaner.Index
		rec.do("minoaner", "minoaner/open", func() { ix, err = minoaner.OpenIndexFile(snap) })
		if err != nil {
			return err
		}
		if i == 0 {
			rec.do("minoaner", "minoaner/first-delta", func() {
				var delta *minoaner.KB
				if delta, err = minoaner.LoadKB("delta", bytes.NewReader(firstDelta)); err == nil {
					_, err = ix.QueryKB(context.Background(), delta)
				}
			})
		}
		ix.Close()
		if err != nil {
			return err
		}
	}
	rec.do("minoaner", "minoaner/load-eager", func() { _, err = minoaner.LoadIndexFile(snap) })
	return err
}

// deltaStages runs one delta body through the delta plan stage by
// stage, against the prepared left side.
func deltaStages(rec *recorder, prep *pipeline.Prepared, body []byte, cfg core.Config) error {
	triples, err := rdf.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return err
	}
	delta, err := kb.FromTriples("delta", triples)
	if err != nil {
		return err
	}
	st, err := pipeline.NewDeltaState(prep, delta, cfg.Params())
	if err != nil {
		return err
	}
	eng := pipeline.Engine{Plan: rec.stages("delta", core.DeltaPlanFor(cfg))}
	_, err = eng.Run(context.Background(), st)
	return err
}
