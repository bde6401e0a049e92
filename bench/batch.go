package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
	"minoaner/internal/tokenize"
)

// batch is the batch-values and batch-neighbors workloads: repeated
// `minoaner resolve` children over one generated KB pair.
type batch struct {
	dataset string
	scale   float64
	f1Floor float64 // at factor 1; see README.md for how it was set

	e *env
	p *pair
}

func (b *batch) setUp(e *env) (err error) {
	b.e = e
	b.p, err = generate(e, b.dataset, b.scale)
	return err
}

func (b *batch) tearDown() {}

func (b *batch) setUpParts() (datagen, snapshot time.Duration) { return b.p.took, 0 }

// minBatchRuns is the fewest children one set-up times, however short
// its share of -seconds is.
const minBatchRuns = 2

func (b *batch) measure(seconds time.Duration) (*outcome, error) {
	args := []string{"resolve", "-kb1", b.p.kb1, "-kb2", b.p.kb2}
	// The warm-up run fills the page cache and fixes the answer every
	// timed run must repeat.
	warm, err := runChild(true, b.e.bin, args...)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	runs := 0
	var busy time.Duration
	deadline := time.Now().Add(seconds)
	for time.Now().Before(deadline) || o.attempted < minBatchRuns {
		o.attempted++
		r, err := runChild(false, b.e.bin, args...)
		if err != nil {
			o.fail("resolve child: %v", err)
			continue
		}
		if r.hash != warm.hash {
			o.fail("resolve child printed matches with hash %016x, the warm-up printed %016x", r.hash, warm.hash)
			continue
		}
		runs++
		busy += r.wall
		o.observe("op_p50_ms", "ms", 1, ms(r.wall))
		o.observe("first_result_ms", "ms", 1, ms(r.first))
		o.observe("cpu_ms_per_op", "ms", 1, ms(r.cpu))
		o.observe("peak_rss_mb", "MB", 1, r.rssMB)
	}
	if runs > 0 {
		o.observe("throughput_ops", "1/s", runs, float64(runs)/busy.Seconds())
	}
	f1 := f1Score(warm.out, b.p.ds)
	o.notes["matches_hash"] = fmt.Sprintf("%016x", warm.hash)
	o.notes["f1"] = fmt.Sprintf("%.4f", f1)
	if b.e.factor == 1 && f1 < b.f1Floor {
		o.failAll("F1 %.4f against the generated ground truth is below the floor %.2f", f1, b.f1Floor)
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// f1Score scores "uri1,uri2" lines against the generated ground truth
// under the repository's own protocol (eval.Evaluate).
func f1Score(csv []byte, ds *datagen.Dataset) float64 {
	var predicted []eval.Pair
	sc := bufio.NewScanner(bytes.NewReader(csv))
	for sc.Scan() {
		u1, u2, _ := strings.Cut(sc.Text(), ",")
		e1, ok1 := ds.KB1.Lookup(u1)
		e2, ok2 := ds.KB2.Lookup(u2)
		if ok1 && ok2 {
			predicted = append(predicted, eval.Pair{E1: e1, E2: e2})
		}
	}
	return eval.Evaluate(predicted, ds.GT).F1
}

// loadKB replays what `minoaner resolve` does with one input file, a
// span per layer: parse, tokenize (an upper bound on tokenization's
// share of the build, which tokenizes the same literals), add, build.
func loadKB(rec *recorder, name, path string) (*kb.KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var triples []rdf.Triple
	rec.do("rdf", "rdf/parse", func() { triples, err = rdf.NewReader(f).ReadAll() })
	if err != nil {
		return nil, err
	}
	rec.count("rdf.bytes", float64(info.Size()))
	rec.count("rdf.triples", float64(len(triples)))
	rec.do("tokenize", "tokenize/tokens", func() {
		for _, t := range triples {
			if t.Object.IsLiteral() {
				tokenize.Tokens(t.Object.Value, tokenize.Options{})
			}
		}
	})
	b := kb.NewBuilder(name)
	rec.do("kb", "kb/add", func() { err = b.AddAll(triples) })
	if err != nil {
		return nil, err
	}
	var built *kb.KB
	rec.doAlloc("kb", "kb/build", func() { built, err = b.Build() })
	return built, err
}

// replay runs the batch path once in this process.
func (b *batch) replay(rec *recorder) error {
	k1, err := loadKB(rec, "KB1", b.p.kb1)
	if err != nil {
		return err
	}
	k2, err := loadKB(rec, "KB2", b.p.kb2)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	m, err := core.NewMatcher(k1, k2, cfg)
	if err != nil {
		return err
	}
	var res *core.Result
	rec.do("core", "core/run-plan", func() {
		res, err = m.RunPlan(context.Background(), rec.stages("batch", core.PlanFor(cfg)), nil)
	})
	if err != nil {
		return err
	}
	rec.count("blocking.token_blocks", float64(res.TokenBlockCount))
	rec.count("blocking.comparisons", float64(res.TokenComparisons))
	return nil
}
