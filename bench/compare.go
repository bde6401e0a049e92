package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// extras are the end-to-end figures only some workloads have, which
// BENCHMARK.json (every metric on every workload) cannot declare: their
// units, directions and regression bounds. The traced run reports them
// as the socket layer's http.* metrics. read_p99_us has no bound: it
// wanders by a quarter between runs.
var extras = []declaredMetric{
	{Name: "lookup_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "delta_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "delta_p99_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "delta32_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "snapshot_mb", Unit: "MB", Better: "lower", Bound: 0.01},
	{Name: "mutate_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "read_p99_us", Unit: "us", Better: "lower"},
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// medianNoise estimates how far a run's figure may sit from where a
// repeat would put it: the interquartile range of its rounds, shrunk by
// the square root of their number as the error of a median is.
func medianNoise(m metric) float64 {
	if len(m.Rounds) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(m.Rounds)
	return (q3 - q1) / math.Sqrt(float64(len(m.Rounds)))
}

// verdict judges one metric of one workload. worse and better mean the
// two figures differ by more than the bound; unresolved means a run's
// own noise is wider than the bound and the two figures lie within each
// other's noise, so the bound cannot be told from chance.
func verdict(old, new metric, dm declaredMetric) string {
	if old.Value == 0 {
		return "unresolved"
	}
	worseBy := (new.Value - old.Value) / old.Value
	if dm.Better == "higher" {
		worseBy = -worseBy
	}
	no, nn := medianNoise(old), medianNoise(new)
	if max(no, nn)/old.Value > dm.Bound && old.Value-no <= new.Value+nn && new.Value-nn <= old.Value+no {
		return "unresolved"
	}
	switch {
	case worseBy > dm.Bound:
		return "worse"
	case worseBy < -dm.Bound:
		return "better"
	}
	return "ok"
}

// compareFiles prints one row per (metric, workload) and returns the
// exit code: 1 if any row is worse, 2 if the files cannot be compared.
func compareFiles(decl *declared, oldPath, newPath string) int {
	old, err := loadResult(oldPath)
	if err == nil {
		var cur *resultFile
		if cur, err = loadResult(newPath); err == nil {
			return compareResults(decl, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(decl *declared, old, cur *resultFile) int {
	a, b := old.Env, cur.Env
	a.Commit, b.Commit = "", ""
	a.LoadAvg1, b.LoadAvg1 = "", ""
	if a != b {
		fmt.Fprintf(os.Stderr, "bench: the two files were recorded in different environments, refusing to compare:\n  old %+v\n  new %+v\n", old.Env, cur.Env)
		return 2
	}
	fmt.Printf("old: commit %s, load %s\nnew: commit %s, load %s\n", old.Env.Commit, old.Env.LoadAvg1, cur.Env.Commit, cur.Env.LoadAvg1)
	bounds := map[string]declaredMetric{}
	for _, dm := range append(append([]declaredMetric{}, decl.EndToEnd...), extras...) {
		if dm.Bound > 0 {
			bounds[dm.Name] = dm
		}
	}
	fmt.Printf("%-16s %-18s %12s %10s %12s %10s %22s %6s  %s\n", "workload", "metric", "old", "iqr", "new", "iqr", "new/old (base old)", "bound", "verdict")
	worse := false
	for _, known := range workloads {
		o, n := old.Workloads[known.name], cur.Workloads[known.name]
		if o == nil || n == nil {
			continue
		}
		names := make([]string, 0, len(o.Metrics))
		for name := range o.Metrics {
			if _, both := n.Metrics[name]; both {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			dm, bounded := bounds[name]
			if !bounded {
				continue
			}
			om, nm := o.Metrics[name], n.Metrics[name]
			v := verdict(om, nm, dm)
			worse = worse || v == "worse"
			fmt.Printf("%-16s %-18s %12.4f %10.4f %12.4f %10.4f %10.4f (%10.4f) %5.1f%%  %s\n",
				known.name, name, om.Value, om.IQR, nm.Value, nm.IQR, nm.Value/om.Value, om.Value, dm.Bound*100, v)
		}
		if o.Failed != 0 || n.Failed != 0 {
			fmt.Printf("%-16s %-18s %12d %10s %12d  operations failed\n", known.name, "failed", o.Failed, "", n.Failed)
			worse = worse || n.Failed > o.Failed
		}
	}
	if worse {
		return 1
	}
	return 0
}
