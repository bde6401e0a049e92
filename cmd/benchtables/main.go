// Command benchtables regenerates the paper's evaluation artifacts over
// the synthetic benchmark stand-ins:
//
//	benchtables -table 1          # Table I  (dataset statistics)
//	benchtables -table 2          # Table II (block statistics)
//	benchtables -table 3          # Table III (method comparison)
//	benchtables -table all        # everything
//	benchtables -ablations        # MinoanER ablation study
//	benchtables -json BENCH_pipeline.json   # per-stage pipeline timings
//	benchtables -ingest-json BENCH_ingest.json -ingest-workers 1,2,4,8
//	                              # ingest-to-matches profile across worker counts
//	benchtables -query-json BENCH_query.json
//	                              # index build/save/load cost + per-query latency
//	benchtables -delta-json BENCH_delta.json -delta-workers 1,2,4,8
//	                              # prepared-side vs full-plan delta resolution latency
//	benchtables -update-json BENCH_update.json -update-workers 1,2,4,8
//	                              # epoch-update (live mutation) vs full-rebuild latency
//
// Absolute numbers differ from the paper (the substrates are synthetic
// stand-ins; see DESIGN.md §2); the comparative shapes are the
// reproduction target and are recorded in EXPERIMENTS.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"minoaner"
	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/experiments"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
	"minoaner/internal/rdf"
)

// envJSON records the execution environment; every BENCH_*.json
// document carries one so recorded latencies can be normalized across
// machines.
type envJSON struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
}

func benchEnv() envJSON {
	return envJSON{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
	}
}

// stageBenchJSON is one stage's cost within a dataset's pipeline run.
type stageBenchJSON struct {
	Stage      string `json:"stage"`
	Nanos      int64  `json:"ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// datasetBenchJSON is the per-stage timing profile of one benchmark.
type datasetBenchJSON struct {
	Name      string           `json:"name"`
	Matches   int              `json:"matches"`
	TotalNano int64            `json:"total_ns"`
	Stages    []stageBenchJSON `json:"stages"`
}

// pipelineBenchJSON is the BENCH_pipeline.json document: the per-stage
// instrumentation of a default-configuration MinoanER run on every
// synthetic benchmark, seeding the performance trajectory.
type pipelineBenchJSON struct {
	Seed     int64              `json:"seed"`
	Scale    float64            `json:"scale"`
	Workers  int                `json:"workers"`
	Env      envJSON            `json:"env"`
	Datasets []datasetBenchJSON `json:"datasets"`
}

func writePipelineBench(path string, datasets []*datagen.Dataset, seed int64, scale float64) error {
	doc := pipelineBenchJSON{Seed: seed, Scale: scale, Workers: runtime.GOMAXPROCS(0), Env: benchEnv()}
	for _, ds := range datasets {
		m, err := core.NewMatcher(ds.KB1, ds.KB2, core.DefaultConfig())
		if err != nil {
			return err
		}
		m.CollectAllocStats(true)
		res := m.Run()
		entry := datasetBenchJSON{Name: ds.Name, Matches: len(res.Matches)}
		for _, s := range res.Stages {
			entry.Stages = append(entry.Stages, stageBenchJSON{
				Stage:      s.Stage,
				Nanos:      s.Duration.Nanoseconds(),
				AllocBytes: s.AllocBytes,
			})
			entry.TotalNano += s.Duration.Nanoseconds()
		}
		doc.Datasets = append(doc.Datasets, entry)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ingestRunJSON is one ingest-to-matches run at a fixed worker count.
type ingestRunJSON struct {
	Workers           int              `json:"workers"`
	TotalNano         int64            `json:"total_ns"`
	IngestNano        int64            `json:"ingest_ns"`
	BuildBlockingNano int64            `json:"build_blocking_ns"`
	Matches           int              `json:"matches"`
	Stages            []stageBenchJSON `json:"stages"`
}

// ingestDatasetJSON profiles one benchmark across worker counts.
type ingestDatasetJSON struct {
	Name     string `json:"name"`
	Triples1 int    `json:"triples1"`
	Triples2 int    `json:"triples2"`
	// SpeedupBuildBlocking is build_blocking_ns at the lowest worker
	// count divided by the same at the highest (bounded by maxprocs on
	// single-core machines); 0 when the sweep has a single count.
	SpeedupBuildBlocking float64         `json:"speedup_build_blocking"`
	Runs                 []ingestRunJSON `json:"runs"`
}

// ingestBenchJSON is the BENCH_ingest.json document: the instrumented
// ingest-to-blocks-to-matches path (N-Triples parsing, KB assembly,
// blocking, matching) of every synthetic benchmark, swept over worker
// counts, with a built-in bit-identity guard across the sweep.
type ingestBenchJSON struct {
	Seed         int64               `json:"seed"`
	Scale        float64             `json:"scale"`
	MaxProcs     int                 `json:"maxprocs"`
	Env          envJSON             `json:"env"`
	WorkerCounts []int               `json:"worker_counts"`
	Datasets     []ingestDatasetJSON `json:"datasets"`
}

// buildBlockingStages are the stages the ingest speedup is measured
// over: KB assembly plus the whole blocking layer.
var buildBlockingStages = map[string]bool{
	pipeline.StageKBBuild:       true,
	pipeline.StageNameBlocking:  true,
	pipeline.StageTokenBlocking: true,
	pipeline.StageBlockPurging:  true,
	pipeline.StageBlockIndexing: true,
}

func writeIngestBench(path string, datasets []*datagen.Dataset, seed int64, scale float64, workerCounts []int) error {
	doc := ingestBenchJSON{Seed: seed, Scale: scale, MaxProcs: runtime.GOMAXPROCS(0), Env: benchEnv(), WorkerCounts: workerCounts}
	for _, ds := range datasets {
		var nt1, nt2 bytes.Buffer
		if err := rdf.WriteAll(&nt1, ds.Triples1); err != nil {
			return err
		}
		if err := rdf.WriteAll(&nt2, ds.Triples2); err != nil {
			return err
		}
		entry := ingestDatasetJSON{Name: ds.Name, Triples1: len(ds.Triples1), Triples2: len(ds.Triples2)}
		var baseline []eval.Pair
		baselineWorkers, haveBaseline := 0, false
		for _, w := range workerCounts {
			cfg := core.DefaultConfig()
			cfg.Workers = w
			res, _, _, err := core.RunSources(context.Background(),
				pipeline.Source{Name: ds.Name + "/KB1", R: bytes.NewReader(nt1.Bytes())},
				pipeline.Source{Name: ds.Name + "/KB2", R: bytes.NewReader(nt2.Bytes())},
				cfg, nil, true)
			if err != nil {
				return err
			}
			if !haveBaseline {
				baseline, baselineWorkers, haveBaseline = res.Matches, w, true
			} else if !samePairs(res.Matches, baseline) {
				return fmt.Errorf("%s: matches diverge between workers=%d and workers=%d",
					ds.Name, baselineWorkers, w)
			}
			run := ingestRunJSON{Workers: w, Matches: len(res.Matches)}
			for _, s := range res.Stages {
				run.Stages = append(run.Stages, stageBenchJSON{
					Stage:      s.Stage,
					Nanos:      s.Duration.Nanoseconds(),
					AllocBytes: s.AllocBytes,
				})
				run.TotalNano += s.Duration.Nanoseconds()
				if s.Stage == pipeline.StageIngest {
					run.IngestNano += s.Duration.Nanoseconds()
				}
				if buildBlockingStages[s.Stage] {
					run.BuildBlockingNano += s.Duration.Nanoseconds()
				}
			}
			entry.Runs = append(entry.Runs, run)
		}
		// Speedup compares the lowest against the highest worker count,
		// wherever they appear in the sweep.
		var base, best ingestRunJSON
		for _, run := range entry.Runs {
			if base.Workers == 0 || run.Workers < base.Workers {
				base = run
			}
			if run.Workers > best.Workers {
				best = run
			}
		}
		if base.BuildBlockingNano > 0 && best.BuildBlockingNano > 0 && base.Workers != best.Workers {
			entry.SpeedupBuildBlocking = float64(base.BuildBlockingNano) / float64(best.BuildBlockingNano)
		}
		doc.Datasets = append(doc.Datasets, entry)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// queryDatasetJSON profiles the query path of one benchmark: index
// build and snapshot round-trip cost, eager-vs-mapped cold start from
// the snapshot file, then the latency of resolving every KB2 entity
// one query at a time against the loaded index.
type queryDatasetJSON struct {
	Name          string `json:"name"`
	Entities1     int    `json:"entities1"`
	Entities2     int    `json:"entities2"`
	Matches       int    `json:"matches"`
	BuildNano     int64  `json:"build_ns"`
	SnapshotBytes int    `json:"snapshot_bytes"`
	SaveNano      int64  `json:"save_ns"`
	// LoadNano and LoadFirstQueryNano are the eager cold start:
	// LoadIndexFile (decode everything) plus the first query. OpenNano
	// and OpenFirstQueryNano are the mapped cold start: OpenIndexFile
	// (map, decode the eager tier only) plus the first query.
	// ColdStartSpeedup is (load+first)/(open+first) — how much sooner a
	// mapped server answers its first query.
	LoadNano           int64   `json:"load_ns"`
	LoadFirstQueryNano int64   `json:"load_first_query_ns"`
	OpenNano           int64   `json:"open_ns"`
	OpenFirstQueryNano int64   `json:"open_first_query_ns"`
	ColdStartSpeedup   float64 `json:"cold_start_speedup"`
	Queries            int     `json:"queries"`
	TotalNano          int64   `json:"total_query_ns"`
	MeanNano           int64   `json:"mean_query_ns"`
	P50Nano            int64   `json:"p50_query_ns"`
	P95Nano            int64   `json:"p95_query_ns"`
	P99Nano            int64   `json:"p99_query_ns"`
	MaxNano            int64   `json:"max_query_ns"`
}

// coldStartReps is how many times each cold start is measured; the
// recorded pair is the rep with the median total.
const coldStartReps = 5

// measureColdStart times open(path) plus the first query, coldStartReps
// times, and returns the median rep's numbers plus one opened index.
// Only the last rep's index is kept alive — holding every rep's decoded
// index would inflate later reps with GC pressure.
func measureColdStart(path, firstURI string, open func(string) (*minoaner.Index, error)) (openNano, firstNano int64, ix *minoaner.Index, err error) {
	type rep struct{ open, first int64 }
	reps := make([]rep, 0, coldStartReps)
	for i := 0; i < coldStartReps; i++ {
		ix = nil
		runtime.GC() // keep the previous rep's garbage out of this one
		t0 := time.Now()
		ix, err = open(path)
		if err != nil {
			return 0, 0, nil, err
		}
		openNano := time.Since(t0).Nanoseconds()
		t0 = time.Now()
		ix.Query(firstURI)
		reps = append(reps, rep{open: openNano, first: time.Since(t0).Nanoseconds()})
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].open+reps[i].first < reps[j].open+reps[j].first })
	r := reps[len(reps)/2]
	return r.open, r.first, ix, nil
}

// smallDelta extracts the triples of the first n KB2 subjects as a
// delta KB — enough to drive the prepared delta path.
func smallDelta(b *minoaner.Benchmark, n int) (*minoaner.KB, error) {
	var nt bytes.Buffer
	if err := b.WriteKB2(&nt); err != nil {
		return nil, err
	}
	subjects := make(map[string]bool, n)
	for i, uri := range b.KB2.URIs() {
		if i >= n {
			break
		}
		tok := "<" + uri + ">"
		if strings.HasPrefix(uri, "_:") {
			tok = uri
		}
		subjects[tok] = true
	}
	var sel []string
	for _, line := range strings.Split(nt.String(), "\n") {
		if i := strings.IndexByte(line, ' '); i > 0 && subjects[line[:i]] {
			sel = append(sel, line)
		}
	}
	return minoaner.LoadKB("delta", strings.NewReader(strings.Join(sel, "\n")+"\n"))
}

// queryBenchJSON is the BENCH_query.json document: the serving-path
// trajectory (index build, snapshot round-trip, per-query latency over
// every KB2 entity) of every synthetic benchmark, with a built-in guard
// that the union of per-entity queries equals the batch match set.
type queryBenchJSON struct {
	Seed     int64              `json:"seed"`
	Scale    float64            `json:"scale"`
	MaxProcs int                `json:"maxprocs"`
	Env      envJSON            `json:"env"`
	Datasets []queryDatasetJSON `json:"datasets"`
}

func writeQueryBench(path string, seed int64, scale float64) error {
	doc := queryBenchJSON{Seed: seed, Scale: scale, MaxProcs: runtime.GOMAXPROCS(0), Env: benchEnv()}
	for _, name := range minoaner.BenchmarkNames() {
		b, err := minoaner.GenerateBenchmark(name, seed, scale)
		if err != nil {
			return err
		}
		cfg := minoaner.DefaultConfig()

		t0 := time.Now()
		built, err := minoaner.BuildIndex(b.KB1, b.KB2, cfg)
		if err != nil {
			return err
		}
		buildNano := time.Since(t0).Nanoseconds()
		// Freeze the delta substrate into the snapshot (the serve-ready
		// shape), so the mapped cold start is measured against the
		// snapshot a production server would actually open — including
		// the lazily decoded prepared section.
		built.Prepare()

		var snap bytes.Buffer
		t0 = time.Now()
		if err := minoaner.SaveIndex(&snap, built); err != nil {
			return err
		}
		saveNano := time.Since(t0).Nanoseconds()

		// Cold start from a real snapshot file, eager vs mapped: each
		// rep opens the file from scratch and answers one query.
		snapFile, err := os.CreateTemp("", "benchtables-*.msnp")
		if err != nil {
			return err
		}
		snapPath := snapFile.Name()
		defer os.Remove(snapPath)
		if _, err := snapFile.Write(snap.Bytes()); err != nil {
			snapFile.Close()
			return err
		}
		if err := snapFile.Close(); err != nil {
			return err
		}
		firstURI := b.KB2.URIs()[0]
		loadNano, loadFirstNano, ix, err := measureColdStart(snapPath, firstURI, minoaner.LoadIndexFile)
		if err != nil {
			return err
		}
		openNano, openFirstNano, mapped, err := measureColdStart(snapPath, firstURI, minoaner.OpenIndexFile)
		if err != nil {
			return err
		}

		// Bit-identity guards for the mapped path: a small delta through
		// the (lazily decoded) prepared substrate, then the full query
		// sweep below compares every answer against the eager index.
		delta, err := smallDelta(b, 4)
		if err != nil {
			return err
		}
		mappedRes, err := mapped.QueryKB(context.Background(), delta)
		if err != nil {
			return err
		}
		eagerRes, err := ix.QueryKB(context.Background(), delta)
		if err != nil {
			return err
		}
		if !sameMatches(mappedRes.Matches, eagerRes.Matches) {
			return fmt.Errorf("%s: mapped QueryKB diverges from eager (%d vs %d matches)",
				name, len(mappedRes.Matches), len(eagerRes.Matches))
		}

		// Per-query latency over every KB2 entity, plus the equality
		// guard: the union of the answers must be the full match set.
		// The built index's matches stand in for a batch Resolve run
		// (their equality is enforced by index_test.go), so the pipeline
		// is not executed a second time just for the guard.
		batchMatches := built.Matches()
		want := make(map[minoaner.Match]bool, len(batchMatches))
		for _, m := range batchMatches {
			want[m] = true
		}
		got := make(map[minoaner.Match]bool)
		uris := b.KB2.URIs()
		lat := make([]int64, 0, len(uris))
		var total int64
		for _, uri := range uris {
			q0 := time.Now()
			results := ix.Query(uri)
			d := time.Since(q0).Nanoseconds()
			lat = append(lat, d)
			total += d
			if mr := mapped.Query(uri); !reflect.DeepEqual(mr, results) {
				return fmt.Errorf("%s: mapped Query(%q) diverges from eager", name, uri)
			}
			for _, m := range results[0].Matches {
				got[m] = true
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s: query union has %d matches, batch has %d", name, len(got), len(want))
		}
		for m := range got {
			if !want[m] {
				return fmt.Errorf("%s: query union contains %v, batch does not", name, m)
			}
		}

		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		entry := queryDatasetJSON{
			Name:               b.Name,
			Entities1:          b.KB1.Len(),
			Entities2:          b.KB2.Len(),
			Matches:            len(batchMatches),
			BuildNano:          buildNano,
			SnapshotBytes:      snap.Len(),
			SaveNano:           saveNano,
			LoadNano:           loadNano,
			LoadFirstQueryNano: loadFirstNano,
			OpenNano:           openNano,
			OpenFirstQueryNano: openFirstNano,
			Queries:            len(lat),
			TotalNano:          total,
		}
		if mappedCold := openNano + openFirstNano; mappedCold > 0 {
			entry.ColdStartSpeedup = float64(loadNano+loadFirstNano) / float64(mappedCold)
		}
		if n := len(lat); n > 0 {
			entry.MeanNano = total / int64(n)
			entry.P50Nano = lat[n/2]
			entry.P95Nano = lat[min(n-1, n*95/100)]
			entry.P99Nano = lat[min(n-1, n*99/100)]
			entry.MaxNano = lat[n-1]
		}
		doc.Datasets = append(doc.Datasets, entry)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// deltaCaseJSON is one measured delta resolution: a delta of the given
// size resolved against the indexed KB1 through the full plan and
// through the prepared substrate, with the built-in guarantee that both
// produced the same matches.
type deltaCaseJSON struct {
	Entities     int     `json:"entities"`
	Triples      int     `json:"triples"`
	Matches      int     `json:"matches"`
	FullNano     int64   `json:"full_plan_ns"`
	PreparedNano int64   `json:"prepared_ns"`
	Speedup      float64 `json:"speedup"`
}

// deltaDatasetJSON profiles the delta path of one benchmark.
type deltaDatasetJSON struct {
	Name      string `json:"name"`
	Entities1 int    `json:"entities1"`
	Entities2 int    `json:"entities2"`
	// PrepareNano is the one-time cost of freezing the KB1 substrate.
	PrepareNano int64 `json:"prepare_ns"`
	// SingleEntity and Batches are the measured delta resolutions.
	SingleEntity []deltaCaseJSON `json:"single_entity"`
	Batches      []deltaCaseJSON `json:"batches"`
	// MinSingleSpeedup is the smallest full/prepared ratio across the
	// single-entity deltas — the conservative headline number.
	MinSingleSpeedup float64 `json:"min_single_speedup"`
	// EquivalenceWorkers lists the worker counts at which the prepared
	// path was verified bit-identical to the full plan on every delta.
	EquivalenceWorkers []int `json:"equivalence_workers"`
}

// deltaBenchJSON is the BENCH_delta.json document: prepared-side vs
// full-plan delta resolution latency over every synthetic benchmark,
// with a built-in bit-identity guard across worker counts.
type deltaBenchJSON struct {
	Seed     int64              `json:"seed"`
	Scale    float64            `json:"scale"`
	MaxProcs int                `json:"maxprocs"`
	Env      envJSON            `json:"env"`
	Datasets []deltaDatasetJSON `json:"datasets"`
}

// deltaPreparedReps is how many times each prepared-path resolution is
// repeated; the recorded latency is the mean.
const deltaPreparedReps = 5

func writeDeltaBench(path string, datasets []*datagen.Dataset, seed int64, scale float64, workerCounts []int) error {
	doc := deltaBenchJSON{Seed: seed, Scale: scale, MaxProcs: runtime.GOMAXPROCS(0), Env: benchEnv()}
	for _, ds := range datasets {
		cfg := core.DefaultConfig()
		entry := deltaDatasetJSON{
			Name:               ds.Name,
			Entities1:          ds.KB1.Len(),
			Entities2:          ds.KB2.Len(),
			EquivalenceWorkers: workerCounts,
		}
		t0 := time.Now()
		prep := pipeline.PrepareSide(ds.KB1, cfg.Params())
		entry.PrepareNano = time.Since(t0).Nanoseconds()

		n2 := ds.KB2.Len()
		uri := func(e int) string { return ds.KB2.URI(kb.EntityID(e)) }
		singles := [][]string{{uri(0)}, {uri(n2 / 2)}, {uri(n2 - 1)}}
		var batches [][]string
		for _, size := range []int{16, 128} {
			if size >= n2 || size >= ds.KB1.Len() {
				continue
			}
			sel := make([]string, 0, size)
			for i := 0; i < size; i++ {
				sel = append(sel, uri(i*n2/size))
			}
			batches = append(batches, sel)
		}

		measure := func(uris []string) (deltaCaseJSON, error) {
			delta, triples, err := kb.FromTriplesSubset("delta", ds.Triples2, uris)
			if err != nil {
				return deltaCaseJSON{}, err
			}
			c := deltaCaseJSON{Entities: delta.Len(), Triples: triples}

			m, err := core.NewMatcher(ds.KB1, delta, cfg)
			if err != nil {
				return c, err
			}
			t0 := time.Now()
			full, err := m.RunContext(context.Background())
			if err != nil {
				return c, err
			}
			c.FullNano = time.Since(t0).Nanoseconds()
			c.Matches = len(full.Matches)

			var preparedTotal int64
			for rep := 0; rep < deltaPreparedReps; rep++ {
				t0 = time.Now()
				fast, err := core.RunDelta(context.Background(), prep, delta, cfg, nil, false)
				if err != nil {
					return c, err
				}
				preparedTotal += time.Since(t0).Nanoseconds()
				if !samePairs(fast.Matches, full.Matches) {
					return c, fmt.Errorf("%s: prepared path diverges from full plan on a %d-entity delta",
						ds.Name, delta.Len())
				}
			}
			c.PreparedNano = preparedTotal / deltaPreparedReps
			if c.PreparedNano > 0 {
				c.Speedup = float64(c.FullNano) / float64(c.PreparedNano)
			}

			// Bit-identity across the worker sweep (the full plan's own
			// worker invariance is guarded by BENCH_ingest.json).
			for _, w := range workerCounts {
				cfgW := cfg
				cfgW.Workers = w
				fast, err := core.RunDelta(context.Background(), prep, delta, cfgW, nil, false)
				if err != nil {
					return c, err
				}
				if !samePairs(fast.Matches, full.Matches) {
					return c, fmt.Errorf("%s: prepared path diverges at workers=%d on a %d-entity delta",
						ds.Name, w, delta.Len())
				}
			}
			return c, nil
		}

		for _, sel := range singles {
			c, err := measure(sel)
			if err != nil {
				return err
			}
			entry.SingleEntity = append(entry.SingleEntity, c)
			if entry.MinSingleSpeedup == 0 || c.Speedup < entry.MinSingleSpeedup {
				entry.MinSingleSpeedup = c.Speedup
			}
		}
		for _, sel := range batches {
			c, err := measure(sel)
			if err != nil {
				return err
			}
			entry.Batches = append(entry.Batches, c)
		}
		doc.Datasets = append(doc.Datasets, entry)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// updateCaseJSON is one measured mutation: an entity-level change
// absorbed through the epoch-update path and, as the baseline, through
// a from-scratch rebuild (KB assembly plus the full plan), with the
// built-in guarantee that both produced the same matches.
type updateCaseJSON struct {
	Op          string  `json:"op"` // "modify", "insert", or "delete"
	Subjects    int     `json:"subjects"`
	Triples     int     `json:"triples"` // delta triples (0 for deletes)
	Matches     int     `json:"matches"`
	UpdateNano  int64   `json:"update_ns"`
	RebuildNano int64   `json:"rebuild_ns"`
	Speedup     float64 `json:"speedup"`
}

// updateDatasetJSON profiles the mutation path of one benchmark.
type updateDatasetJSON struct {
	Name      string `json:"name"`
	Entities1 int    `json:"entities1"`
	Entities2 int    `json:"entities2"`
	// PrimeNano is the one-time cost of the mutable substrate (paid
	// before the first mutation).
	PrimeNano int64 `json:"prime_ns"`
	// Cases are the measured mutations, applied as one chained
	// sequence (each starts from the previous epoch). "modify" edits
	// one literal of an existing description (the common touch-up);
	// "rewrite" swaps a literal for another entity's value, changing
	// the entity's shared-token profile wholesale; "insert" and
	// "delete" add and remove entities.
	Cases []updateCaseJSON `json:"cases"`
	// MinUpsertSpeedup is the smallest rebuild/update ratio across the
	// single-entity "modify" upserts — the headline number.
	// MinRewriteSpeedup is the same across the heavier "rewrite"
	// upserts, whose cost is bounded by the genuinely affected
	// neighborhood rather than the touched entity.
	MinUpsertSpeedup  float64 `json:"min_upsert_speedup"`
	MinRewriteSpeedup float64 `json:"min_rewrite_speedup"`
	// EquivalenceWorkers lists the worker counts at which the update
	// path was verified bit-identical to the full plan on every case.
	EquivalenceWorkers []int `json:"equivalence_workers"`
}

// updateBenchJSON is the BENCH_update.json document: per-mutation
// epoch-update latency vs full rebuild over every synthetic benchmark,
// with a built-in rebuild-equivalence guard across worker counts.
type updateBenchJSON struct {
	Seed     int64               `json:"seed"`
	Scale    float64             `json:"scale"`
	MaxProcs int                 `json:"maxprocs"`
	Env      envJSON             `json:"env"`
	Datasets []updateDatasetJSON `json:"datasets"`
}

func writeUpdateBench(path string, datasets []*datagen.Dataset, seed int64, scale float64, workerCounts []int) error {
	ctx := context.Background()
	doc := updateBenchJSON{Seed: seed, Scale: scale, MaxProcs: runtime.GOMAXPROCS(0), Env: benchEnv()}
	for _, ds := range datasets {
		cfg := core.DefaultConfig()
		entry := updateDatasetJSON{
			Name:               ds.Name,
			Entities1:          ds.KB1.Len(),
			Entities2:          ds.KB2.Len(),
			EquivalenceWorkers: workerCounts,
		}

		// Resolve the pair once and prime the mutable substrate.
		st := pipeline.NewState(ds.KB1, ds.KB2, cfg.Params())
		eng := pipeline.Engine{Plan: core.PlanFor(cfg)}
		if _, err := eng.Run(ctx, st); err != nil {
			return err
		}
		t0 := time.Now()
		cache, err := pipeline.NewCache(ctx, st, st.NameBlocks, st.PurgeStats)
		if err != nil {
			return err
		}
		entry.PrimeNano = time.Since(t0).Nanoseconds()

		store, err := kb.NewStore(ds.KB2)
		if err != nil {
			return err
		}
		cur := ds.KB2
		refTriples := append([]rdf.Triple(nil), ds.Triples2...)

		measure := func(op string, delta []rdf.Triple, deletes []string) error {
			var deltaKB *kb.KB
			if len(delta) > 0 {
				deltaKB, err = kb.FromTriples("delta", delta)
				if err != nil {
					return err
				}
			}

			// The epoch-update path: apply at triple level, assemble the
			// KB epoch, absorb it into the match state. Single-shot
			// numbers at these latencies are GC-noisy, so the whole
			// mutation is timed as the median of a few runs, reverted
			// between repetitions (the last one commits).
			var next *kb.KB
			var upd *core.Result
			var nextCache *pipeline.Cache
			var times []int64
			const reps = 5
			runtime.GC() // keep earlier cases' garbage out of this measurement
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				changed, revert, err := store.Apply(deltaKB, deletes)
				if err != nil {
					return err
				}
				if !changed {
					return fmt.Errorf("%s: %s mutation was a no-op", ds.Name, op)
				}
				next = store.Assemble(cur)
				upd, nextCache, err = core.RunUpdate(ctx, cache, ds.KB1, cur, ds.KB1, next, cfg, nil, false)
				if err != nil {
					return err
				}
				times = append(times, time.Since(t0).Nanoseconds())
				if rep < reps-1 {
					revert()
				}
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			updateNano := times[len(times)/2]

			// The baseline: what a build-once system pays for the same
			// change — reassemble KB2 from the mutated triples and rerun
			// the full plan.
			refTriples = applyRefMutation(refTriples, delta, deletes)
			runtime.GC()
			var full *core.Result
			rebuildNano, err := medianNano(func() error {
				rebuilt, err := kb.FromTriples(ds.KB2.Name(), refTriples)
				if err != nil {
					return err
				}
				m, err := core.NewMatcher(ds.KB1, rebuilt, cfg)
				if err != nil {
					return err
				}
				full, err = m.RunContext(ctx)
				return err
			})
			if err != nil {
				return err
			}

			// Rebuild-equivalence guard, here and across the worker
			// sweep.
			if !samePairs(upd.Matches, full.Matches) {
				return fmt.Errorf("%s: %s mutation diverges from the full rebuild", ds.Name, op)
			}
			for _, w := range workerCounts {
				cfgW := cfg
				cfgW.Workers = w
				updW, _, err := core.RunUpdate(ctx, cache, ds.KB1, cur, ds.KB1, next, cfgW, nil, false)
				if err != nil {
					return err
				}
				if !samePairs(updW.Matches, full.Matches) {
					return fmt.Errorf("%s: %s mutation diverges at workers=%d", ds.Name, op, w)
				}
			}

			c := updateCaseJSON{
				Op:          op,
				Subjects:    len(deletes),
				Matches:     len(upd.Matches),
				UpdateNano:  updateNano,
				RebuildNano: rebuildNano,
			}
			if deltaKB != nil {
				c.Subjects = deltaKB.Len()
				c.Triples = deltaKB.NumTriples()
			}
			if updateNano > 0 {
				c.Speedup = float64(rebuildNano) / float64(updateNano)
			}
			entry.Cases = append(entry.Cases, c)
			if op == "modify" && (entry.MinUpsertSpeedup == 0 || c.Speedup < entry.MinUpsertSpeedup) {
				entry.MinUpsertSpeedup = c.Speedup
			}
			if op == "rewrite" && (entry.MinRewriteSpeedup == 0 || c.Speedup < entry.MinRewriteSpeedup) {
				entry.MinRewriteSpeedup = c.Speedup
			}
			cur, cache = next, nextCache
			return nil
		}

		n2 := cur.Len()
		subjectTriples := func(uri string) []rdf.Triple {
			var out []rdf.Triple
			for _, tr := range refTriples {
				if kb.SubjectKey(tr.Subject) == uri {
					out = append(out, tr)
				}
			}
			return out
		}
		// Three single-entity modifications spread over KB2 — the
		// common touch-up: one literal of the description gains a
		// word, everything else stays.
		for i, e := range []int{0, n2 / 2, n2 - 1} {
			uri := cur.URI(kb.EntityID(e))
			delta := subjectTriples(uri)
			for j, tr := range delta {
				if tr.Object.IsLiteral() {
					delta[j].Object = rdf.NewLiteral(tr.Object.Value + fmt.Sprintf(" corrected%d", i))
					break
				}
			}
			if err := measure("modify", delta, nil); err != nil {
				return err
			}
		}
		// Two single-entity rewrites: a literal swapped for another
		// entity's value, changing the entity's shared-token profile —
		// the expensive end of the upsert spectrum.
		for _, e := range []int{n2 / 3, 2 * n2 / 3} {
			uri := cur.URI(kb.EntityID(e))
			donor := subjectTriples(cur.URI(kb.EntityID((e + n2/2) % n2)))
			delta := subjectTriples(uri)
			for j, tr := range delta {
				if !tr.Object.IsLiteral() {
					continue
				}
				for _, dt := range donor {
					if dt.Object.IsLiteral() {
						delta[j].Object = dt.Object
						break
					}
				}
				break
			}
			if err := measure("rewrite", delta, nil); err != nil {
				return err
			}
		}
		// One brand-new entity and one deletion.
		newSubj := rdf.NewIRI("http://bench/new-entity")
		if err := measure("insert", []rdf.Triple{
			rdf.NewTriple(newSubj, rdf.NewIRI("http://bench/name"), rdf.NewLiteral("benchmark insert entity")),
			rdf.NewTriple(newSubj, rdf.NewIRI("http://bench/link"), rdf.NewIRI(cur.URI(kb.EntityID(n2/3)))),
		}, nil); err != nil {
			return err
		}
		if err := measure("delete", nil, []string{cur.URI(kb.EntityID(n2 / 4))}); err != nil {
			return err
		}

		doc.Datasets = append(doc.Datasets, entry)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// medianNano runs fn updateBenchReps times and returns the median
// wall-clock time.
func medianNano(fn func() error) (int64, error) {
	const reps = 3
	times := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Nanoseconds())
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// applyRefMutation mirrors Store.Apply on a reference triple list.
func applyRefMutation(ts, delta []rdf.Triple, deletes []string) []rdf.Triple {
	drop := make(map[string]bool)
	for _, tr := range delta {
		drop[kb.SubjectKey(tr.Subject)] = true
	}
	for _, u := range deletes {
		drop[u] = true
	}
	out := ts[:0:0]
	for _, tr := range ts {
		if !drop[kb.SubjectKey(tr.Subject)] {
			out = append(out, tr)
		}
	}
	return append(out, delta...)
}

// sameMatches compares public match slices treating nil and empty as
// equal.
func sameMatches(a, b []minoaner.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// samePairs compares match slices treating nil and empty as equal.
func samePairs(a, b []eval.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func parseWorkerCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid worker count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no worker counts in %q", s)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")

	var (
		table         = flag.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
		ablations     = flag.Bool("ablations", false, "run the MinoanER ablation study instead of the paper tables")
		blockingStudy = flag.Bool("blocking-study", false, "compare blocking strategies (purging vs meta-blocking) instead of the paper tables")
		seed          = flag.Int64("seed", 42, "dataset generator seed")
		scale         = flag.Float64("scale", 1.0, "dataset size multiplier")
		methods       = flag.String("methods", "", "comma-separated subset of methods for table 3 (default: all)")
		timing        = flag.Bool("timing", true, "print per-step wall-clock timings to stderr")
		jsonPath      = flag.String("json", "", "write per-stage MinoanER pipeline timings to this JSON file (e.g. BENCH_pipeline.json) instead of the paper tables")
		ingestPath    = flag.String("ingest-json", "", "write the instrumented ingest-to-matches profile (N-Triples parsing, KB build, blocking, matching) to this JSON file (e.g. BENCH_ingest.json) instead of the paper tables")
		ingestWorkers = flag.String("ingest-workers", "1,2,4,8", "comma-separated worker counts swept by -ingest-json")
		queryPath     = flag.String("query-json", "", "write the query-path profile (index build, snapshot save/load, per-query latency over every KB2 entity) to this JSON file (e.g. BENCH_query.json) instead of the paper tables")
		deltaPath     = flag.String("delta-json", "", "write the delta-resolution profile (prepared substrate vs full plan, single entities and batches, with a bit-identity guard) to this JSON file (e.g. BENCH_delta.json) instead of the paper tables")
		deltaWorkers  = flag.String("delta-workers", "1,2,4,8", "comma-separated worker counts at which -delta-json verifies prepared/full bit-identity")
		updatePath    = flag.String("update-json", "", "write the mutation profile (per-upsert/delete epoch-update latency vs full rebuild, with a rebuild-equivalence guard) to this JSON file (e.g. BENCH_update.json) instead of the paper tables")
		updateWorkers = flag.String("update-workers", "1,2,4,8", "comma-separated worker counts at which -update-json verifies update/rebuild bit-identity")
		streamPath    = flag.String("stream-json", "", "write the anytime-resolution profile (time-to-first-match, recall-vs-budget curves and AUC per scheduling strategy, with a bit-identity guard) to this JSON file (e.g. BENCH_stream.json) instead of the paper tables")
	)
	flag.Parse()

	if *queryPath != "" {
		t0 := time.Now()
		if err := writeQueryBench(*queryPath, *seed, *scale); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "query bench in %v (written to %s)\n",
				time.Since(t0).Round(time.Millisecond), *queryPath)
		}
		return
	}

	start := time.Now()
	datasets, err := experiments.Datasets(datagen.Options{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "datasets generated in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if *jsonPath != "" {
		t0 := time.Now()
		if err := writePipelineBench(*jsonPath, datasets, *seed, *scale); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "pipeline bench in %v (written to %s)\n",
				time.Since(t0).Round(time.Millisecond), *jsonPath)
		}
		return
	}
	if *streamPath != "" {
		t0 := time.Now()
		if err := writeStreamBench(*streamPath, datasets, *seed, *scale); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "stream bench in %v (written to %s)\n",
				time.Since(t0).Round(time.Millisecond), *streamPath)
		}
		return
	}
	if *deltaPath != "" {
		counts, err := parseWorkerCounts(*deltaWorkers)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := writeDeltaBench(*deltaPath, datasets, *seed, *scale, counts); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "delta bench in %v (written to %s)\n",
				time.Since(t0).Round(time.Millisecond), *deltaPath)
		}
		return
	}
	if *updatePath != "" {
		counts, err := parseWorkerCounts(*updateWorkers)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := writeUpdateBench(*updatePath, datasets, *seed, *scale, counts); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "update bench in %v (written to %s)\n",
				time.Since(t0).Round(time.Millisecond), *updatePath)
		}
		return
	}
	if *ingestPath != "" {
		counts, err := parseWorkerCounts(*ingestWorkers)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := writeIngestBench(*ingestPath, datasets, *seed, *scale, counts); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "ingest bench in %v (written to %s)\n",
				time.Since(t0).Round(time.Millisecond), *ingestPath)
		}
		return
	}
	if *ablations {
		t0 := time.Now()
		if err := experiments.AblationTable(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "ablations in %v\n", time.Since(t0).Round(time.Millisecond))
		}
		return
	}
	if *blockingStudy {
		t0 := time.Now()
		if err := experiments.BlockingStrategyTable(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "blocking study in %v\n", time.Since(t0).Round(time.Millisecond))
		}
		return
	}

	want := func(n string) bool { return *table == "all" || *table == n }
	if want("1") {
		if err := experiments.TableI(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if want("2") {
		t0 := time.Now()
		if err := experiments.TableII(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if *timing {
			fmt.Fprintf(os.Stderr, "table II in %v\n", time.Since(t0).Round(time.Millisecond))
		}
	}
	if want("3") {
		selected := experiments.Methods()
		if *methods != "" {
			keep := map[string]bool{}
			for _, m := range strings.Split(*methods, ",") {
				keep[strings.TrimSpace(m)] = true
			}
			var filtered []experiments.Method
			for _, m := range selected {
				if keep[m.Name] {
					filtered = append(filtered, m)
				}
			}
			if len(filtered) == 0 {
				log.Fatalf("no methods matched %q", *methods)
			}
			selected = filtered
		}
		t0 := time.Now()
		results := experiments.RunMethods(datasets, selected)
		if err := experiments.TableIII(datasets, results).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "table III in %v\n", time.Since(t0).Round(time.Millisecond))
		}
	}
}
