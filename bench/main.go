// Command bench is the repository's benchmark: five workloads over the
// real minoaner binaries, measured black-box, plus a traced in-process
// replay of each that times every layer. README.md describes the
// workloads, the metrics and how they are expected to interact;
// BENCHMARK.json at the checkout root declares them.
//
//	bench/run.sh                                   every workload, a table and bench/out/result.json
//	bench/run.sh --workload serve-read             one workload, one JSON line last
//	bench/run.sh --workload serve-read --trace 1   its per-layer metrics and bench/out/trace-serve-read.json
//	bench/run.sh -compare old.json new.json        verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is what the runner needs from each of the five.
type workload interface {
	// setUp prepares everything the first timed operation needs; the
	// runner times it as setup_s.
	setUp(e *env) error
	// tearDown stops what setUp started.
	tearDown()
	// setUpParts splits the last setUp for the set-up layer's metrics.
	setUpParts() (datagen, snapshot time.Duration)
	// measure drives the real binaries for about the given time.
	measure(seconds time.Duration) (*outcome, error)
	// replay runs the same inputs once in this process, a span around
	// each call into a layer. A nil recorder runs it untraced.
	replay(rec *recorder) error
}

// workloads lists the five in the order they run. The names are cited
// by later issues; the one-line reasons are in BENCHMARK.json.
var workloads = []struct {
	name string
	make func() workload
}{
	{"batch-values", func() workload { return &batch{dataset: "BBCmusic-DBpedia", scale: 2, f1Floor: 0.80} }},
	{"batch-neighbors", func() workload { return &batch{dataset: "YAGO-IMDb", scale: 2, f1Floor: 0.97} }},
	{"serve-read", func() workload { return &serveRead{} }},
	{"serve-write", func() workload { return &serveWrite{} }},
	{"stream-anytime", func() workload { return &streamAnytime{} }},
}

// series is one metric's raw material: a value per round (or per run —
// whatever the workload repeats), how many operations lie behind them,
// and, once set-ups have been merged, each set-up's median.
type series struct {
	unit   string
	rounds []float64
	n      int
	setUps []float64
}

// outcome is what measuring one set-up produced. The runner merges the
// outcomes of a run's set-ups: a metric is the median over a set-up's
// rounds, averaged over the set-ups. The mean is deliberate. Set-ups
// differ in their generated dataset and a dataset's cost is not a
// sample of one distribution — datasets fall into cheaper and dearer
// kinds — so the median of three would report whichever kind two of
// them happen to be.
type outcome struct {
	attempted int
	failed    int
	allFailed bool // a check on the whole answer failed
	series    map[string]*series
	notes     map[string]string
	said      int
}

func newOutcome() *outcome {
	return &outcome{series: map[string]*series{}, notes: map[string]string{}}
}

// observe adds per-round values of one metric, backed by n operations.
func (o *outcome) observe(name, unit string, n int, rounds ...float64) {
	s := o.series[name]
	if s == nil {
		s = &series{unit: unit}
		o.series[name] = s
	}
	s.rounds = append(s.rounds, rounds...)
	s.n += n
}

// failN counts n failed operations and says why, the first few times.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if o.said++; o.said <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

func (o *outcome) failAll(format string, args ...any) {
	o.allFailed = true
	o.failN(0, format, args...)
}

func (o *outcome) failures() int {
	if o.allFailed {
		return o.attempted
	}
	return min(o.failed, o.attempted)
}

// merge folds another set-up's outcome into o.
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failures()
	for name, s := range p.series {
		o.observe(name, s.unit, s.n, s.rounds...)
		o.series[name].setUps = append(o.series[name].setUps, median(s.rounds))
	}
	for k, v := range p.notes {
		if o.notes[k] != "" {
			v = o.notes[k] + "," + v
		}
		o.notes[k] = v
	}
}

func (o *outcome) metrics() map[string]metric {
	m := make(map[string]metric, len(o.series))
	for name, s := range o.series {
		mt := overRounds(s.unit, s.rounds, s.n)
		if len(s.setUps) > 0 {
			mt.Value = sum(s.setUps) / float64(len(s.setUps))
		}
		m[name] = mt
	}
	return m
}

// report is one workload's result as it is printed and stored.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     map[string]string `json:"notes,omitempty"`
}

// options are the command-line settings of a run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	factor  float64
}

const (
	// setUpReps is how many times a run sets its workload up. Each
	// set-up generates its own dataset (from seed*setUpReps+i) and is
	// measured for a third of the run, so that a run's figures are
	// medians over three datasets: how much a mutation or a resolution
	// costs moves by several percent from one generated dataset to the
	// next, and one dataset per run would put all of that into the
	// run-to-run spread.
	setUpReps     = 3
	traceBlackBox = 3 * time.Second // black-box time a traced run spends on the socket layer's metrics
)

// runWorkload sets the workload up, measures it and tears it down,
// setUpReps times over; a traced run does it once and then replays the
// inputs in-process.
func runWorkload(root, bin string, compileTook time.Duration, name string, opt options) (*report, error) {
	var build func() workload
	for _, known := range workloads {
		if known.name == name {
			build = known.make
		}
	}
	if build == nil {
		return nil, fmt.Errorf("no workload named %q", name)
	}
	dir, err := os.MkdirTemp(filepath.Join(root, "bench", "out"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	children.Lock()
	children.scratch = dir
	children.Unlock()

	reps, seconds := setUpReps, opt.seconds/setUpReps
	if opt.trace {
		reps, seconds = 1, min(opt.seconds, traceBlackBox)
	}
	total := newOutcome()
	var w workload
	defer func() {
		if w != nil {
			w.tearDown()
		}
	}()
	for i := 0; i < reps; i++ {
		if w != nil {
			w.tearDown()
		}
		w = build()
		e := &env{bin: bin, dir: dir, seed: opt.seed*setUpReps + int64(i), factor: opt.factor}
		start := time.Now()
		if err := w.setUp(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		total.observe("setup_s", "s", 1, time.Since(start).Seconds())
		o, err := w.measure(seconds)
		if err != nil {
			return nil, fmt.Errorf("measuring: %w", err)
		}
		total.merge(o)
	}
	rep := &report{
		Correct:   total.failures() == 0,
		Attempted: total.attempted,
		Failed:    total.failures(),
		Metrics:   total.metrics(),
		Notes:     total.notes,
	}
	if !opt.trace {
		return rep, nil
	}

	// The untraced replay goes first so that both start from a settled
	// heap; the collection between them keeps the first one's garbage
	// from buying the second fewer GC cycles.
	start := time.Now()
	if err := w.replay(nil); err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	bare := time.Since(start)
	runtime.GC()
	debug.FreeOSMemory()
	rec := newRecorder()
	start = time.Now()
	if err := w.replay(rec); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	traced := time.Since(start)
	if err := rec.writeTrace(filepath.Join(root, "bench", "out", "trace-"+name+".json")); err != nil {
		return nil, err
	}
	datagen, snapshot := w.setUpParts()
	rep.Metrics = layerMetrics(rec, rep.Metrics)
	rep.Metrics["setup.datagen_s"] = metric{Value: datagen.Seconds(), Unit: "s"}
	rep.Metrics["setup.snapshot_s"] = metric{Value: snapshot.Seconds(), Unit: "s"}
	rep.Metrics["setup.compile_s"] = metric{Value: compileTook.Seconds(), Unit: "s"}
	rep.Metrics["trace.overhead_frac"] = metric{Value: traced.Seconds() / bare.Seconds(), Unit: "ratio"}
	return rep, nil
}

// declared is BENCHMARK.json, the contract this program reports to.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(root string) (*declared, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// driverLine is the one JSON object a single-workload run prints last:
// exactly the metrics BENCHMARK.json declares for the mode.
func driverLine(d *declared, rep *report, trace bool) ([]byte, error) {
	want := d.EndToEnd
	if trace {
		want = d.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, dm := range want {
		m, ok := rep.Metrics[dm.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %s, the run did not measure it", dm.Name)
		}
		if m.Unit != dm.Unit {
			return nil, fmt.Errorf("BENCHMARK.json declares %s in %s, the run measured %s", dm.Name, dm.Unit, m.Unit)
		}
		metrics[dm.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   rep.Correct,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
}

// environment is what two result files must share to be comparable.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Factor     float64 `json:"scale_factor"`
	Trace      bool    `json:"trace"`
	LoadAvg1   string  `json:"loadavg_1min_at_start"`
}

func readEnvironment(root string, opt options) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       opt.seed,
		Seconds:    opt.seconds.Seconds(),
		Factor:     opt.factor,
		Trace:      opt.trace,
		LoadAvg1:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg1, _, _ = strings.Cut(string(b), " ")
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // a checkout without git history stays "unknown"
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// resultFile is what an all-workloads run writes and -compare reads.
type resultFile struct {
	Env       environment        `json:"env"`
	Workloads map[string]*report `json:"workloads"`
}

func printReport(name string, rep *report) {
	fmt.Printf("\n%s: %d attempted, %d failed", name, rep.Attempted, rep.Failed)
	notes := make([]string, 0, len(rep.Notes))
	for k, v := range rep.Notes {
		notes = append(notes, k+"="+v)
	}
	sort.Strings(notes)
	fmt.Printf("  %s\n", strings.Join(notes, " "))
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-34s %14.4f %-6s n=%-6d iqr=%.4f%s\n", n, m.Value, m.Unit, m.N, m.IQR, tailNote(n, m.N))
	}
}

var tailInName = regexp.MustCompile(`_p(\d+)_`)

// tailNote warns when a metric named after a tail percentile rests on
// too few samples to have ten beyond it.
func tailNote(name string, n int) string {
	m := tailInName.FindStringSubmatch(name)
	if m == nil {
		return ""
	}
	p, _ := strconv.ParseFloat(m[1], 64) // the pattern admits digits only
	if p <= 50 || n == 0 || supportedTail(n) >= p {
		return ""
	}
	if best := supportedTail(n); best > 0 {
		return fmt.Sprintf("  (n supports p%g at most)", best)
	}
	return "  (n supports no tail percentile)"
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "run this workload alone and print one JSON line last (default: all five, a table, and a result file)")
	seed := flag.Int64("seed", 42, "seed of the generated inputs and of every seeded sample")
	seconds := flag.Int("seconds", 0, "how long each workload measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 replays each workload in-process with a span per layer and reports the per-layer metrics")
	factor := flag.Float64("scale-factor", 1, "multiplies every workload's input scale and round length; recorded runs use 1")
	out := flag.String("out", "", "result file of an all-workloads run (default bench/out/result.json)")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	decl, err := readDeclared(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(decl, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = decl.RunSeconds
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, factor: *factor}

	// Children die with the benchmark whichever way it ends: return and
	// panic through the deferred call, a signal through the handler.
	defer killChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopEverything()
		os.Exit(130)
	}()

	env := readEnvironment(root, opt)
	if err := os.MkdirAll(filepath.Join(root, "bench", "out", "bin"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bin, compileTook, err := compile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	if *workloadName != "" {
		rep, err := runWorkload(root, bin, compileTook, *workloadName, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workloadName, err)
			return 1
		}
		printReport(*workloadName, rep)
		line, err := driverLine(decl, rep, opt.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		return 0
	}

	fmt.Printf("env: %+v\n", env)
	res := resultFile{Env: env, Workloads: map[string]*report{}}
	failed := false
	for _, known := range workloads {
		rep, err := runWorkload(root, bin, compileTook, known.name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", known.name, err)
			failed = true
			continue
		}
		printReport(known.name, rep)
		res.Workloads[known.name] = rep
		failed = failed || !rep.Correct
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", "result.json")
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(*out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nwrote %s\n", *out)
	if failed {
		return 1
	}
	return 0
}
