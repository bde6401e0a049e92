package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// smoke is the scale and duration of the smoke run: every workload
// starts, answers and is torn down in about a second.
var smoke = options{seed: 7, seconds: 300 * time.Millisecond, factor: 0.05}

// TestEveryWorkloadEmitsWhatIsDeclared runs each workload black-box and
// traced at smoke scale and checks the driver line against
// BENCHMARK.json: every declared metric present with its unit, no
// operation failed, no child left behind.
func TestEveryWorkloadEmitsWhatIsDeclared(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	bin, compileTook, err := compile(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killChildren)
	for i, known := range workloads {
		if decl.Workloads[i].Name != known.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, decl.Workloads[i].Name, known.name)
		}
		for _, trace := range []bool{false, true} {
			opt := smoke
			opt.trace = trace
			rep, err := runWorkload(root, bin, compileTook, known.name, opt)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", known.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", known.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			line, err := driverLine(decl, rep, trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", known.name, trace, err)
			}
			var parsed struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatalf("%s: driver line %s: %v", known.name, line, err)
			}
			if !trace {
				for name, m := range parsed.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", known.name, name, m.Value)
					}
				}
			}
			children.Lock()
			live := len(children.live)
			children.Unlock()
			if live != 0 {
				t.Errorf("%s (trace %v) left %d children running", known.name, trace, live)
			}
		}
	}
}

// TestLayerMetricsAreDeclared checks the ladder against BENCHMARK.json
// in the other direction: nothing the traced run computes is missing
// from the declared per-layer list.
func TestLayerMetricsAreDeclared(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, dm := range decl.PerLayer {
		declared[dm.Name] = true
	}
	for name := range layerMetrics(newRecorder(), nil) {
		if !declared[name] {
			t.Errorf("the traced run computes %s, BENCHMARK.json does not declare it", name)
		}
	}
}

func scheduleBytes(t *testing.T, seed int64) []byte {
	e := &env{dir: t.TempDir(), seed: seed, factor: smoke.factor}
	p, err := generate(e, "YAGO-IMDb", serveReadScale)
	if err != nil {
		t.Fatal(err)
	}
	s, err := holdOut(e, p)
	if err != nil {
		t.Fatal(err)
	}
	return newReadSchedule(e, s).bytes()
}

func TestScheduleFollowsTheSeed(t *testing.T) {
	a, b, c := scheduleBytes(t, 1), scheduleBytes(t, 1), scheduleBytes(t, 2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different op schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("two seeds gave the same op schedule")
	}
}
