package main

import "strings"

// layerDefs is the layer ladder: every per-layer metric that is read
// straight off the spans of a traced replay. A workload whose replay
// never opens a span reads 0 there — it does not touch that layer. The
// span names are set in the replay functions (batch.go, serve.go,
// write.go, stream.go); stage spans are plan/stage-name. README.md says
// which end-to-end metric each of these should move, on which workload.
var layerDefs = []layerDef{
	{"rdf.parse_ms", "ms", "rdf/parse", "sum"},
	{"tokenize.ms", "ms", "tokenize/tokens", "sum"},

	{"kb.add_ms", "ms", "kb/add", "sum"},
	{"kb.build_ms", "ms", "kb/build", "sum"},
	{"kb.build_alloc_mb", "MB", "kb/build", "alloc"},
	{"kb.store_apply_ms", "ms", "kb/store-apply", "median"},
	{"kb.store_assemble_ms", "ms", "kb/store-assemble", "median"},
	{"kb.store_assemble_alloc_mb", "MB", "kb/store-assemble", "alloc"},
	{"kb.open_binary_us", "us", "kb/open-binary", "median"},

	{"blocking.name_ms", "ms", "batch/name-blocking", "sum"},
	{"blocking.token_ms", "ms", "batch/token-blocking", "sum"},
	{"blocking.purge_ms", "ms", "batch/block-purging", "sum"},
	{"blocking.index_ms", "ms", "batch/block-indexing", "sum"},
	{"blocking.index_alloc_mb", "MB", "batch/block-indexing", "alloc"},
	{"blocking.token_blocks", "count", "blocking.token_blocks", "count"},
	{"blocking.comparisons", "count", "blocking.comparisons", "count"},
	{"blocking.probe_us", "us", "delta/name-blocking+delta/token-blocking+delta/block-indexing", "median"},
	{"blocking.patch_ms", "ms", "update/name-blocking+update/token-blocking+update/block-indexing", "median"},
	{"blocking.prepared_mb", "MB", "blocking.prepared_mb", "count"},

	{"pipeline.value_cands_ms", "ms", "batch/value-candidates", "sum"},
	{"pipeline.neighbor_cands_ms", "ms", "batch/neighbor-candidates", "sum"},
	{"pipeline.neighbor_cands_alloc_mb", "MB", "batch/neighbor-candidates", "alloc"},
	{"pipeline.h1_ms", "ms", "batch/h1-names", "sum"},
	{"pipeline.h2_ms", "ms", "batch/h2-values", "sum"},
	{"pipeline.h3_ms", "ms", "batch/h3-rank-aggregation", "sum"},
	{"pipeline.h4_ms", "ms", "batch/h4-reciprocity", "sum"},
	{"pipeline.delta_value_us", "us", "delta/value-candidates", "median"},
	{"pipeline.delta_neighbor_us", "us", "delta/neighbor-candidates", "median"},
	{"pipeline.update_value_ms", "ms", "update/value-candidates", "median"},
	{"pipeline.update_neighbor_ms", "ms", "update/neighbor-candidates", "median"},
	{"pipeline.update_affected", "count", "pipeline.update_affected", "count"},
	{"pipeline.stream_first_ms", "ms", "pipeline/stream-first", "median"},
	{"pipeline.stream_quarter_ms", "ms", "pipeline/stream-quarter", "median"},
	{"pipeline.stream_drain_ms", "ms", "pipeline/stream-drain", "sum"},

	{"core.plan_overhead_ms", "ms", "core/run-plan", "self"},

	{"binio.map_open_us", "us", "binio/map-open", "median"},
	{"binio.crc_all_ms", "ms", "binio/crc-all", "sum"},

	{"minoaner.build_index_ms", "ms", "minoaner/build-index", "sum"},
	{"minoaner.prepare_ms", "ms", "minoaner/prepare", "sum"},
	{"minoaner.save_ms", "ms", "minoaner/save", "sum"},
	{"minoaner.open_us", "us", "minoaner/open", "median"},
	{"minoaner.load_eager_ms", "ms", "minoaner/load-eager", "sum"},
	{"minoaner.first_delta_ms", "ms", "minoaner/first-delta", "sum"},
	{"minoaner.delta_parse_us", "us", "minoaner/delta-parse", "median"},
	{"minoaner.querykb_us", "us", "minoaner/querykb", "median"},
	{"minoaner.querykb32_ms", "ms", "minoaner/querykb32", "median"},
	{"minoaner.upsert_ms", "ms", "minoaner/upsert", "median"},
	{"minoaner.delete_ms", "ms", "minoaner/delete", "median"},
	{"minoaner.handler_lookup_us", "us", "minoaner/handler-lookup", "median"},
	{"minoaner.handler_delta_us", "us", "minoaner/handler-delta", "median"},
	{"minoaner.handler_json_bytes", "count", "minoaner.handler_json_bytes", "count"},
}

// layerMetrics turns a traced replay, and the black-box figures measured
// just before it, into the per-layer metrics.
func layerMetrics(rec *recorder, blackBox map[string]metric) map[string]metric {
	m := make(map[string]metric, len(layerDefs)+16)
	for _, d := range layerDefs {
		name, _, _ := strings.Cut(d.span, "+")
		m[d.metric] = metric{Value: d.value(rec), Unit: d.unit, N: len(rec.durations(name, false))}
	}
	ratio := func(name, unit string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	ratio("rdf.mb_per_s", "MB/s", rec.counts["rdf.bytes"]/(1<<20), m["rdf.parse_ms"].Value/1000)
	ratio("pipeline.ns_per_comparison", "ns", m["pipeline.value_cands_ms"].Value*1e6, rec.counts["blocking.comparisons"])
	ratio("minoaner.query_ns", "ns", sum(rec.durations("minoaner/query-all", false)), rec.counts["minoaner.queries"])

	// The figures only some workloads have (see extras) ride along as
	// the socket layer's metrics.
	for _, x := range extras {
		m["http."+x.Name] = metric{Value: blackBox[x.Name].Value, Unit: x.Unit, N: blackBox[x.Name].N}
	}
	// What the socket adds: the black-box median minus the same request
	// served by the handler in this process.
	over := func(name string, blackBoxUS, handlerUS float64) {
		v := 0.0
		if blackBoxUS > 0 && handlerUS > 0 {
			v = blackBoxUS - handlerUS
		}
		m[name] = metric{Value: v, Unit: "us"}
	}
	over("http.lookup_overhead_us", blackBox["lookup_p50_us"].Value, m["minoaner.handler_lookup_us"].Value)
	over("http.delta_overhead_us", blackBox["delta_p50_us"].Value, m["minoaner.handler_delta_us"].Value)
	return m
}
