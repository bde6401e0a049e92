package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"

	"minoaner/internal/pipeline"
)

// span is one timed call into a layer. Parent is the index of the span
// that was open when this one began (-1 at the top); Op numbers the
// replayed operation the span belongs to.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	AllocB  uint64 `json:"alloc_bytes,omitempty"`
}

// recorder keeps the spans of one replay in memory. Replays run on one
// goroutine, so the open spans form a stack. A nil recorder records
// nothing: the same replay run with nil gives the untraced time that
// trace.overhead_frac divides by.
type recorder struct {
	t0     time.Time
	spans  []span
	open   []int
	op     int
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]float64{}}
}

// nextOp starts a new replayed operation.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// count records a work count taken at a layer boundary.
func (r *recorder) count(name string, v float64) {
	if r != nil {
		r.counts[name] += v
	}
}

// do times fn as a span of the given layer.
func (r *recorder) do(layer, name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	r.record(layer, name, fn)
}

// doAlloc is do plus the bytes allocated meanwhile. ReadMemStats stops
// the world, so only the spans whose allocation is a metric pay for it.
func (r *recorder) doAlloc(layer, name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.record(layer, name, fn)
	runtime.ReadMemStats(&after)
	r.spans[id].AllocB = after.TotalAlloc - before.TotalAlloc
}

// record runs fn inside a new span and returns the span's index.
func (r *recorder) record(layer, name string, fn func()) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, Op: r.op})
	r.open = append(r.open, id)
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.StartNS, s.EndNS = int64(start), int64(end)
	s.SelfNS += s.EndNS - s.StartNS
	if parent >= 0 {
		r.spans[parent].SelfNS -= s.EndNS - s.StartNS
	}
	return id
}

// now is the recorder's clock, for intervals that end inside a callback.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// interval records a finished span that did not nest as a call: it
// belongs to the open span but takes nothing from its self time.
func (r *recorder) interval(layer, name string, startNS, endNS int64) {
	if r == nil {
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, StartNS: startNS, EndNS: endNS, SelfNS: endNS - startNS, Parent: parent, Op: r.op})
}

// tracedStage times one pipeline stage as a span named plan/stage.
type tracedStage struct {
	pipeline.Stage
	rec  *recorder
	plan string
}

// allocSpans are the stage spans whose allocation is a per-layer metric.
var allocSpans = map[string]bool{
	"batch/" + pipeline.StageBlockIndexing:      true,
	"batch/" + pipeline.StageNeighborCandidates: true,
}

// blockingStages are the stages that belong to internal/blocking; the
// rest of a plan is internal/pipeline's.
var blockingStages = map[string]bool{
	pipeline.StageNameBlocking:  true,
	pipeline.StageTokenBlocking: true,
	pipeline.StageBlockPurging:  true,
	pipeline.StageBlockIndexing: true,
}

func (t tracedStage) Run(ctx context.Context, st *pipeline.State) (err error) {
	layer := "pipeline"
	if blockingStages[t.Name()] {
		layer = "blocking"
	}
	do, name := t.rec.do, t.plan+"/"+t.Name()
	if allocSpans[name] {
		do = t.rec.doAlloc
	}
	do(layer, name, func() { err = t.Stage.Run(ctx, st) })
	return err
}

// stages wraps every stage of a plan. Without a recorder the plan runs
// bare.
func (r *recorder) stages(plan string, stages []pipeline.Stage) []pipeline.Stage {
	if r == nil {
		return stages
	}
	out := make([]pipeline.Stage, len(stages))
	for i, s := range stages {
		out[i] = tracedStage{Stage: s, rec: r, plan: plan}
	}
	return out
}

// durations lists the lengths (or self times) of the spans of one name.
func (r *recorder) durations(name string, self bool) []float64 {
	var ds []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name {
			if self {
				ds = append(ds, float64(s.SelfNS))
			} else {
				ds = append(ds, float64(s.EndNS-s.StartNS))
			}
		}
	}
	return ds
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// layerDef derives one per-layer metric from the spans of one name.
type layerDef struct {
	metric string
	unit   string // ns, us, ms and s scale a time; MB an allocation; count a counter
	span   string // span name, or counter name for unit count
	agg    string // sum | median | self | alloc | count
}

var timeUnits = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

// value computes the metric, adding up over "+"-joined span names. A
// span that never ran reads 0, which is how a workload says it does not
// touch that layer.
func (d layerDef) value(r *recorder) float64 {
	if d.agg == "count" {
		return r.counts[d.span]
	}
	var v float64
	for _, name := range strings.Split(d.span, "+") {
		switch ds := r.durations(name, d.agg == "self"); {
		case d.agg == "alloc":
			for i := range r.spans {
				if r.spans[i].Name == name {
					v += float64(r.spans[i].AllocB) / (1 << 20)
				}
			}
		case len(ds) == 0:
		case d.agg == "median":
			v += median(ds) / timeUnits[d.unit]
		default:
			v += sum(ds) / timeUnits[d.unit]
		}
	}
	return v
}

// writeTrace writes the spans, in start order, for offline inspection.
func (r *recorder) writeTrace(path string) error {
	b, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{r.spans, r.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
