package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"minoaner"
	"minoaner/internal/core"
	"minoaner/internal/pipeline"
)

// streamAnytime is the stream-anytime workload: one client asks a
// read-only server for the best quarter of its match set as an NDJSON
// stream, one request after another.
type streamAnytime struct {
	served
	quarter int // Q: a quarter of the epoch's match count
}

const (
	streamScale   = 2
	minStreamReqs = 3 // fewest quarter streams one set-up times, however short its share of -seconds is
	// firstProbes is how many one-pair streams follow each quarter
	// stream. The first line takes ~20 ms and a garbage collection in the
	// server moves it by a quarter, so its median needs more samples than
	// the quarter streams alone give; a one-pair stream reaches its first
	// line by the same path and costs little more than that line.
	firstProbes = 9
)

func (w *streamAnytime) setUp(e *env) (err error) {
	if err = w.prepare(e, "YAGO-IMDb", streamScale); err != nil {
		return err
	}
	if w.srv, err = startServer(e.bin, "-index", w.snap); err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	status, answer, err := call(c, w.srv.base+"/healthz", nil)
	var health struct {
		Matches int `json:"matches"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(answer, &health) != nil || health.Matches < 4 {
		return fmt.Errorf("/healthz: status %d, %v: %s", status, err, answer)
	}
	w.quarter = health.Matches / 4
	// Warm-up: the first stream decodes both mapped KBs.
	_, _, _, err = w.stream(c, w.quarter)
	return err
}

// stream requests the best pairs and reports when the first line
// arrived, when the stream closed, and the lines.
func (w *streamAnytime) stream(c *http.Client, pairs int) (first, closed time.Duration, lines []string, err error) {
	start := time.Now()
	resp, err := c.Get(fmt.Sprintf("%s/resolve/stream?max_pairs=%d", w.srv.base, pairs))
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, nil, fmt.Errorf("/resolve/stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(lines) == 0 {
			first = time.Since(start)
		}
		lines = append(lines, sc.Text())
	}
	return first, time.Since(start), lines, sc.Err()
}

// streamed is one stream's answer and how many lines it was asked for.
type streamed struct {
	want  int
	lines []string
}

func (w *streamAnytime) measure(seconds time.Duration) (*outcome, error) {
	o := newOutcome()
	c := newClient()
	defer c.CloseIdleConnections()
	var answers []streamed
	var busy time.Duration
	quarters := 0
	deadline := time.Now().Add(seconds)
	for time.Now().Before(deadline) || quarters < minStreamReqs {
		for i := 0; i <= firstProbes; i++ {
			pairs := 1
			if i == 0 {
				pairs = w.quarter
			}
			o.attempted++
			var cpu0, cpu1 time.Duration
			if i == 0 {
				cpu0, _ = w.srv.cpu() // a dead server shows as a failed stream
			}
			first, closed, lines, err := w.stream(c, pairs)
			if i == 0 {
				cpu1, _ = w.srv.cpu()
			}
			if err != nil {
				o.fail("stream request: %v", err)
				continue
			}
			o.observe("first_result_ms", "ms", 1, ms(first))
			answers = append(answers, streamed{want: pairs, lines: lines})
			if i == 0 {
				quarters++
				busy += closed
				o.observe("op_p50_ms", "ms", 1, ms(closed))
				o.observe("cpu_ms_per_op", "ms", 1, ms(cpu1-cpu0))
			}
		}
	}
	rss, err := w.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.observe("peak_rss_mb", "MB", 1, rss)
	if quarters > 0 {
		o.observe("throughput_ops", "1/s", quarters, float64(quarters*w.quarter)/busy.Seconds())
	}
	w.checkAnswers(o, answers)
	return o, nil
}

// checkAnswers wants exactly as many lines per answer as were asked for
// (Q, then one for each probe), every one a member of the match set of
// the same snapshot opened in this process.
func (w *streamAnytime) checkAnswers(o *outcome, answers []streamed) {
	ix, err := minoaner.OpenIndexFile(w.snap)
	if err != nil {
		o.failAll("opening the snapshot as the oracle: %v", err)
		return
	}
	defer ix.Close()
	matches := map[matchJSON]bool{}
	for _, m := range ix.Matches() {
		matches[matchJSON{m.URI1, m.URI2}] = true
	}
	for i, a := range answers {
		if len(a.lines) != a.want {
			o.fail("stream %d had %d lines, asked for %d", i, len(a.lines), a.want)
			continue
		}
		for _, line := range a.lines {
			var m matchJSON
			if err := json.Unmarshal([]byte(line), &m); err != nil || !matches[m] {
				o.fail("stream %d: line %q is not in the epoch's match set (%v)", i, line, err)
				break
			}
		}
	}
}

const streamReplays = 3 // budgeted streams the traced run replays

// replay runs the stream engine in this process: one unbudgeted drain,
// then budgeted runs timed at pair 1 and at pair Q.
func (w *streamAnytime) replay(rec *recorder) error {
	ctx := context.Background()
	k1, err := loadKB(nil, "KB1", w.p.kb1)
	if err != nil {
		return err
	}
	k2, err := loadKB(nil, "KB2", w.s.base)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	total := 0
	rec.do("pipeline", "pipeline/stream-drain", func() {
		err = core.RunStream(ctx, k1, k2, cfg, pipeline.StreamBudget{}, func(pipeline.ScoredPair) bool {
			total++
			return true
		})
	})
	if err != nil {
		return err
	}
	budget := pipeline.StreamBudget{MaxPairs: max(total/4, 1)}
	for i := 0; i < streamReplays; i++ {
		rec.nextOp()
		rec.do("pipeline", "pipeline/stream-quarter", func() {
			start, pairs := rec.now(), 0
			err = core.RunStream(ctx, k1, k2, cfg, budget, func(pipeline.ScoredPair) bool {
				if pairs++; pairs == 1 {
					rec.interval("pipeline", "pipeline/stream-first", start, rec.now())
				}
				return true
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
