package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"minoaner"
	"minoaner/internal/core"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
	"minoaner/internal/rdf"
)

// serveWrite is the serve-write workload: one writer connection cycles
// insert -> rewrite -> delete over held-out entities against a mutable
// server while one reader connection loops single-entity deltas.
type serveWrite struct {
	served
	coldWrite float64 // ms from spawn to first mutation acknowledged
}

const (
	serveWriteScale = 0.5
	cyclesPerRound  = 5  // 15 mutations a round
	stableLookups   = 20 // indexed URIs whose answers every round must leave unchanged
	partnerSample   = 40 // inserted entities whose ground-truth partner is looked up, per set-up
	// readPause is the reader's think time. Without one it would keep a
	// core busy, and on two cores the mutation latencies would measure
	// how the scheduler shares them rather than the write path.
	readPause = 2 * time.Millisecond
	// partnerShareFloor is the least share of inserted entities with a
	// ground-truth partner that must resolve to it (factor 1 only; see
	// README.md for how it was set).
	partnerShareFloor = 0.80
)

func deleteBody(uris ...string) []byte {
	b, _ := json.Marshal(map[string]any{"side": 2, "uris": uris}) // strings always marshal
	return b
}

func (w *serveWrite) setUp(e *env) (err error) {
	if err = w.prepare(e, "YAGO-IMDb", serveWriteScale); err != nil {
		return err
	}
	if w.srv, err = spawnServer(e.bin, "-index", w.snap, "-mutable"); err != nil {
		return err
	}
	// The first mutation builds the server's write side (triple stores
	// and scoring substrate). It is timed from the spawn as this
	// workload's first result and kept out of the mutation latencies.
	c := newClient()
	defer c.CloseIdleConnections()
	prime := w.s.held[len(w.s.held)-1]
	err = w.srv.until(func() bool {
		status, _, err := call(c, w.srv.base+"/upsert?side=2", prime.body)
		return err == nil && status == http.StatusOK
	})
	if err != nil {
		return err
	}
	w.coldWrite = ms(time.Since(w.srv.spawn))
	if status, answer, err := call(c, w.srv.base+"/delete", deleteBody(prime.uri)); err != nil || status != http.StatusOK {
		return fmt.Errorf("deleting the priming entity: status %d, %v\n%s", status, err, answer)
	}
	return nil
}

// indexState is what /stats says the index holds.
type indexState struct {
	Epoch   uint64 `json:"epoch"`
	Matches int    `json:"matches"`
}

func (w *serveWrite) stats(c *http.Client) (st indexState, err error) {
	status, answer, err := call(c, w.srv.base+"/stats", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/stats: status %d", status)
	}
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(answer, &st)
}

func (w *serveWrite) lookup(c *http.Client, uri string) ([]byte, error) {
	status, answer, err := call(c, w.srv.base+"/resolve?uri="+url.QueryEscape(uri), nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("lookup of %s: status %d", uri, status)
	}
	return answer, err
}

// readLoop posts a single-entity delta every readPause until stop
// closes and returns the latencies in µs and what failed.
func (w *serveWrite) readLoop(c *http.Client, stop <-chan struct{}) (lat []float64, fails []string) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat, fails
		case <-time.After(readPause):
		}
		ent := w.s.held[i%min(readPool, len(w.s.held))]
		t0 := time.Now()
		status, _, err := call(c, w.srv.base+"/delta", ent.body)
		if err != nil || status != http.StatusOK {
			fails = append(fails, fmt.Sprintf("reader /delta of %s: status %d, %v", ent.uri, status, err))
			continue
		}
		lat = append(lat, us(time.Since(t0)))
	}
}

func (w *serveWrite) measure(seconds time.Duration) (*outcome, error) {
	o := newOutcome()
	o.observe("first_result_ms", "ms", 1, w.coldWrite)
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	before, err := w.stats(writer)
	if err != nil {
		return nil, err
	}
	stable := w.s.indexed[:min(stableLookups, len(w.s.indexed))]
	want := make([][]byte, len(stable))
	for i, uri := range stable {
		if want[i], err = w.lookup(writer, uri); err != nil {
			return nil, err
		}
	}

	epoch := before.Epoch
	// mutate posts one timed mutation and checks that it made exactly
	// one new epoch. The server's CPU over the mutation includes what
	// the reader's requests cost meanwhile.
	mutate := func(path string, body []byte) (took, cpu float64, ok bool) {
		o.attempted++
		cpu0, _ := w.srv.cpu() // a dead server shows as a failed mutation
		t0 := time.Now()
		status, answer, err := call(writer, w.srv.base+path, body)
		elapsed := time.Since(t0)
		cpu1, _ := w.srv.cpu()
		var got indexState
		if err != nil || status != http.StatusOK || json.Unmarshal(answer, &got) != nil {
			o.fail("%s: status %d, %v", path, status, err)
			return 0, 0, false
		}
		epoch++
		if got.Epoch != epoch {
			o.fail("%s: answered epoch %d, expected %d", path, got.Epoch, epoch)
			epoch = got.Epoch
			return 0, 0, false
		}
		return ms(elapsed), ms(cpu1 - cpu0), true
	}

	var pooled []float64
	next := 0
	deadline := time.Now().Add(seconds)
	for rounds := 0; time.Now().Before(deadline) || rounds == 0; rounds++ {
		stop := make(chan struct{})
		type readResult struct {
			lat   []float64
			fails []string
		}
		readDone := make(chan readResult, 1)
		go func() {
			lat, fails := w.readLoop(reader, stop)
			readDone <- readResult{lat, fails}
		}()
		var took, cpu []float64
		start := time.Now()
		for c := 0; c < cyclesPerRound; c++ {
			// The last held-out entity primed the server; the writer
			// cycles through the others.
			ent := w.s.held[next%(len(w.s.held)-1)]
			next++
			steps := []struct {
				path string
				body []byte
			}{
				{"/upsert?side=2", ent.body},
				{"/upsert?side=2", ent.first},
				{"/delete", deleteBody(ent.uri)},
			}
			for _, step := range steps {
				if t, cost, ok := mutate(step.path, step.body); ok {
					took = append(took, t)
					cpu = append(cpu, cost)
				}
			}
		}
		wall := time.Since(start)
		close(stop)
		rr := <-readDone
		o.attempted += len(rr.lat) + len(rr.fails)
		for _, f := range rr.fails {
			o.fail("%s", f)
		}
		pooled = append(pooled, took...)
		if len(took) > 0 {
			o.observe("op_p50_ms", "ms", len(took), percentile(took, 50))
			o.observe("cpu_ms_per_op", "ms", len(took), percentile(cpu, 50))
			o.observe("throughput_ops", "1/s", len(took), float64(len(took))/wall.Seconds())
		}
		if len(rr.lat) > 0 {
			o.observe("read_p50_us", "us", len(rr.lat), percentile(rr.lat, 50))
			o.observe("read_p99_us", "us", len(rr.lat), percentile(rr.lat, 99))
		}

		// The cycle must leave the index as it found it.
		o.attempted++
		after, err := w.stats(writer)
		if err != nil || after.Matches != before.Matches {
			o.fail("after round %d /stats reports %d matches, before the run %d (%v)", rounds, after.Matches, before.Matches, err)
		}
		for i, uri := range stable {
			o.attempted++
			if got, err := w.lookup(writer, uri); err != nil || !bytes.Equal(got, want[i]) {
				o.fail("after round %d the lookup of %s changed (%v)", rounds, uri, err)
			}
		}
	}
	rss, err := w.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.observe("peak_rss_mb", "MB", 1, rss)
	if len(pooled) > 0 {
		o.observe("mutate_p90_ms", "ms", len(pooled), percentile(pooled, 90))
	}
	w.checkPartners(o, writer, mutate)
	return o, nil
}

// checkPartners asks whether inserted entities resolve to their
// ground-truth partners: it inserts partnerSample held-out entities
// that have one in a single upsert, looks each up, and deletes them
// again. None of it is timed.
func (w *serveWrite) checkPartners(o *outcome, c *http.Client, mutate func(path string, body []byte) (float64, float64, bool)) {
	var sample []entity
	var body []byte
	var uris []string
	for _, ent := range w.s.held[:len(w.s.held)-1] {
		if _, has := w.p.truth[ent.uri]; has && len(sample) < partnerSample {
			sample = append(sample, ent)
			body = append(body, ent.body...)
			uris = append(uris, ent.uri)
		}
	}
	if len(sample) == 0 {
		return
	}
	if _, _, ok := mutate("/upsert?side=2", body); !ok {
		return
	}
	resolved := 0
	for _, ent := range sample {
		answer, err := w.lookup(c, ent.uri)
		if err == nil && bytes.Contains(answer, []byte(`"uri1": "`+w.p.truth[ent.uri]+`"`)) {
			resolved++
		}
	}
	mutate("/delete", deleteBody(uris...))
	share := float64(resolved) / float64(len(sample))
	o.notes["partner_share"] = fmt.Sprintf("%.3f of %d", share, len(sample))
	if w.e.factor == 1 && share < partnerShareFloor {
		o.failAll("only %.3f of inserted entities resolved to their ground-truth partner, floor %.2f", share, partnerShareFloor)
	}
}

const replayCycles = 5 // insert/rewrite/delete cycles the traced run replays

// replay runs the mutation path in this process twice over: through
// Index.Upsert / Index.Delete as the server calls them, and again layer
// by layer — triple store, then the update plan stage by stage.
func (w *serveWrite) replay(rec *recorder) error {
	ctx := context.Background()
	ix, err := buildIndex(rec, w.p.kb1, w.s.base)
	if err != nil {
		return err
	}
	cycles := min(replayCycles, len(w.s.held)-1)
	for c := -1; c < cycles; c++ {
		// Cycle -1 is the priming one: it runs on the last held-out
		// entity with no recorder.
		r, ent := rec, w.s.held[(c+len(w.s.held))%len(w.s.held)]
		if c < 0 {
			r = nil
		}
		for _, body := range [][]byte{ent.body, ent.first} {
			delta, err := minoaner.LoadKB("upsert", bytes.NewReader(body))
			if err != nil {
				return err
			}
			r.nextOp()
			r.do("minoaner", "minoaner/upsert", func() { err = ix.Upsert(ctx, 2, delta) })
			if err != nil {
				return err
			}
		}
		r.nextOp()
		r.do("minoaner", "minoaner/delete", func() { err = ix.Delete(ctx, 2, ent.uri) })
		if err != nil {
			return err
		}
	}

	k1, err := loadKB(nil, "KB1", w.p.kb1)
	if err != nil {
		return err
	}
	cur, err := loadKB(nil, "KB2", w.s.base)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	st := pipeline.NewState(k1, cur, cfg.Params())
	if _, err := (&pipeline.Engine{Plan: core.PlanFor(cfg)}).Run(ctx, st); err != nil {
		return err
	}
	cache, err := core.PrimeCache(ctx, k1, cur, st.NameBlocks, st.TokenBlocks, st.PurgeStats, cfg)
	if err != nil {
		return err
	}
	cache.SetMatches(st.H1, st.H2, st.H3, st.Matches, st.DiscardedByH4)
	var store *kb.Store
	rec.do("kb", "kb/new-store", func() { store, err = kb.NewStore(cur) })
	if err != nil {
		return err
	}
	mutate := func(body []byte, deletes []string) error {
		var delta *kb.KB
		if body != nil {
			triples, err := rdf.NewReader(bytes.NewReader(body)).ReadAll()
			if err != nil {
				return err
			}
			if delta, err = kb.FromTriples("upsert", triples); err != nil {
				return err
			}
		}
		rec.nextOp()
		var err error
		rec.do("kb", "kb/store-apply", func() { _, _, err = store.Apply(delta, deletes) })
		if err != nil {
			return err
		}
		var next *kb.KB
		rec.doAlloc("kb", "kb/store-assemble", func() { next = store.Assemble(cur) })
		var ust *pipeline.State
		rec.do("pipeline", "pipeline/update-diff", func() {
			ust, err = pipeline.NewUpdateState(cache, k1, cur, k1, next, cfg.Params())
		})
		if err != nil {
			return err
		}
		eng := pipeline.Engine{Plan: rec.stages("update", core.UpdatePlanFor(cfg))}
		if _, err := eng.Run(ctx, ust); err != nil {
			return err
		}
		v1, v2, n1, n2 := ust.UpdateCounters()
		rec.count("pipeline.update_affected", float64(v1+v2+n1+n2))
		cache = ust.UpdatedCache()
		cache.SetMatches(ust.H1, ust.H2, ust.H3, ust.Matches, ust.DiscardedByH4)
		cur = next
		return nil
	}
	for _, ent := range w.s.held[:cycles] {
		if err := mutate(ent.body, nil); err != nil {
			return err
		}
		if err := mutate(ent.first, nil); err != nil {
			return err
		}
		if err := mutate(nil, []string{ent.uri}); err != nil {
			return err
		}
	}
	return nil
}
