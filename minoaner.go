// Package minoaner is a schema-agnostic, non-iterative entity
// resolution library for Web data — a Go implementation of the
// MinoanER framework (Efthymiou, Papadakis, Stefanidis, Christophides:
// "Simplifying Entity Resolution on Web Data with Schema-Agnostic,
// Non-Iterative Matching", ICDE 2018).
//
// Given two RDF knowledge bases, minoaner identifies the entity pairs
// that describe the same real-world object using only dataset
// statistics — no schema alignment, no domain expertise, no iterative
// convergence. Matching evidence comes from three schema-agnostic
// sources:
//
//   - names: the literal values of each KB's most distinctive
//     attributes, matched exactly (heuristic H1)
//   - values: the bag of tokens of each description, weighted by how
//     rarely each token appears in the two KBs (heuristic H2)
//   - neighbors: the value similarity of the entities linked through
//     each KB's most important relations, combined with value evidence
//     by threshold-free rank aggregation (heuristic H3)
//
// and every candidate match must be reciprocated by both sides
// (heuristic H4).
//
// # Quick start
//
//	kb1, _ := minoaner.LoadKBFile("dbpedia", "kb1.nt")
//	kb2, _ := minoaner.LoadKBFile("imdb", "kb2.nt")
//	res, _ := minoaner.Resolve(kb1, kb2, minoaner.DefaultConfig())
//	for _, m := range res.Matches {
//	    fmt.Println(m.URI1, "<->", m.URI2)
//	}
//
// # Serving resolution queries
//
// Matching is non-iterative, so a resolved KB pair is a pure function
// of its inputs that can be persisted and queried forever: BuildIndex
// resolves the pair once into an Index, SaveIndex / LoadIndex
// round-trip it through a checksummed snapshot (see snapshot.go for
// the format), Index.Query answers per-entity lookups in constant time
// from any number of goroutines, and NewServer exposes the index over
// HTTP/JSON. The data may keep changing underneath: Index.Upsert and
// Index.Delete absorb entity-level mutations under an epoch scheme —
// readers stay lock-free on the old state until the new one swaps in,
// and the mutated index answers bit-identically to a from-scratch
// rebuild over the mutated KBs. The minoaner CLI wraps the same flow
// as the snapshot and serve subcommands (serve -mutable enables the
// mutation endpoints); examples/serve is a runnable walkthrough.
package minoaner

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
	"minoaner/internal/rdf"
)

// Config carries the four MinoanER parameters plus engineering knobs.
// The zero value is not usable; start from DefaultConfig.
type Config struct {
	// K is the number of candidate matches kept per entity and per
	// evidence type (paper default 15).
	K int
	// N is the number of most important relations per entity whose
	// neighbors contribute neighbor similarity (paper default 3).
	N int
	// NameAttributes is the paper's k: how many of each KB's most
	// distinctive attributes supply entity names (paper default 2).
	NameAttributes int
	// Theta trades value-based (θ) against neighbor-based (1-θ)
	// normalized ranks in H3 (paper default 0.6).
	Theta float64
	// PurgeEntityFraction controls Block Purging: token blocks covering
	// more than this fraction of either KB are discarded.
	PurgeEntityFraction float64
	// PurgeMinEntities is the floor for the purging cutoff.
	PurgeMinEntities int
	// Workers bounds the goroutines used for candidate scoring;
	// 0 selects GOMAXPROCS. Results are identical at any setting.
	Workers int

	// DisableH1..DisableH4 switch individual heuristics off for
	// ablation studies.
	DisableH1, DisableH2, DisableH3, DisableH4 bool
}

// DefaultConfig returns the parameter configuration the paper found
// robust across all four benchmark datasets (§IV).
func DefaultConfig() Config {
	c := core.DefaultConfig()
	return Config{
		K:                   c.K,
		N:                   c.N,
		NameAttributes:      c.NameK,
		Theta:               c.Theta,
		PurgeEntityFraction: c.Purge.EntityFraction,
		PurgeMinEntities:    c.Purge.MinEntities,
	}
}

func (c Config) internal() core.Config {
	return core.Config{
		K:         c.K,
		N:         c.N,
		NameK:     c.NameAttributes,
		Theta:     c.Theta,
		Purge:     blocking.PurgeConfig{EntityFraction: c.PurgeEntityFraction, MinEntities: c.PurgeMinEntities},
		Workers:   c.Workers,
		DisableH1: c.DisableH1,
		DisableH2: c.DisableH2,
		DisableH3: c.DisableH3,
		DisableH4: c.DisableH4,
	}
}

// KB is an immutable knowledge base loaded from RDF triples.
type KB struct {
	kb *kb.KB
}

// KBStats summarizes a KB (the columns of the paper's Table I).
type KBStats struct {
	Entities     int
	Triples      int
	AvgTokens    float64
	Attributes   int
	Relations    int
	Types        int
	Vocabularies int
}

// LoadKB parses an N-Triples document into a KB with the given display
// name. Parsing streams straight into the KB builder, block by block on
// every core: triples are interned as they are read, never materialized
// as a slice.
func LoadKB(name string, r io.Reader) (*KB, error) {
	k, _, err := loadKB(name, r, false)
	return k, err
}

// loadKB is the one parse behind LoadKB, LoadKBLenient, /delta and
// /upsert; it returns the count of skipped lines, zero unless lenient.
func loadKB(name string, r io.Reader, lenient bool) (*KB, int, error) {
	b := kb.NewBuilder(name)
	skipped, err := b.AddFromReader(context.Background(), r, lenient)
	if err != nil {
		return nil, skipped, err
	}
	built, err := b.Build()
	if err != nil {
		return nil, skipped, err
	}
	return &KB{kb: built}, skipped, nil
}

// LoadKBFile parses an N-Triples file into a KB.
func LoadKBFile(name, path string) (*KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadKB(name, f)
}

// LoadKBLenient parses an N-Triples document, skipping malformed lines
// (including oversize ones) instead of failing — real Web crawls
// routinely contain them. It returns the KB and the number of lines
// skipped.
func LoadKBLenient(name string, r io.Reader) (*KB, int, error) {
	return loadKB(name, r, true)
}

// WriteBinary serializes the KB in a compact binary format that
// preserves the assembled structure and statistics, so reloading skips
// parsing and re-derivation. The format is versioned; ReadKBBinary
// rejects corrupt or incompatible data.
func (k *KB) WriteBinary(w io.Writer) error { return k.kb.WriteBinary(w) }

// ReadKBBinary loads a KB written by WriteBinary.
func ReadKBBinary(r io.Reader) (*KB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	built, err := kb.ReadBinary(data)
	if err != nil {
		return nil, err
	}
	return &KB{kb: built}, nil
}

// Name returns the KB's display name.
func (k *KB) Name() string { return k.kb.Name() }

// HasSources reports whether the KB retains its source triples.
// Retention is the default for every KB this package builds and is
// what makes an Index over the KB mutable (Index.Upsert/Delete).
func (k *KB) HasSources() bool { return k.kb.HasSources() }

// WithoutSources returns a view of the KB with source retention
// stripped: roughly half the memory and snapshot size, but indexes
// over it reject mutations. The underlying data is shared; the
// receiver is unchanged.
func (k *KB) WithoutSources() *KB { return &KB{kb: k.kb.WithoutSources()} }

// Len returns the number of entities (distinct subjects).
func (k *KB) Len() int { return k.kb.Len() }

// URIs returns every entity URI of the KB, in internal ID order. It
// allocates a fresh slice per call; the KB itself stays immutable.
func (k *KB) URIs() []string {
	out := make([]string, k.kb.Len())
	for i := range out {
		out[i] = k.kb.URI(kb.EntityID(i))
	}
	return out
}

// Stats returns the KB's summary statistics.
func (k *KB) Stats() KBStats {
	return KBStats{
		Entities:     k.kb.Len(),
		Triples:      k.kb.NumTriples(),
		AvgTokens:    k.kb.AvgTokens(),
		Attributes:   k.kb.NumAttributes(),
		Relations:    k.kb.NumRelations(),
		Types:        k.kb.NumTypes(),
		Vocabularies: k.kb.NumVocabularies(),
	}
}

// Match is one resolved entity pair, reported by URI.
type Match struct {
	URI1 string // entity of the first KB
	URI2 string // entity of the second KB
}

// Result reports the matches and per-stage accounting of one run.
type Result struct {
	// Matches is the final output M = (H1 ∨ H2 ∨ H3) ∧ H4.
	Matches []Match
	// ByName, ByValue, ByRank count the contributions of H1, H2 and H3
	// before reciprocity filtering.
	ByName, ByValue, ByRank int
	// DiscardedByReciprocity counts pairs removed by H4.
	DiscardedByReciprocity int
	// NameBlocks and TokenBlocks are |B_N| and |B_T| (after purging).
	NameBlocks, TokenBlocks int
	// NameComparisons and TokenComparisons are ||B_N|| and ||B_T||.
	NameComparisons, TokenComparisons int64
	// PurgedBlocks counts token blocks removed by Block Purging.
	PurgedBlocks int
	// StageTimings reports the pipeline stages executed for this run, in
	// order, with their wall-clock and allocation cost.
	StageTimings []StageTiming

	pairs []eval.Pair
}

// StageTiming is the recorded execution of one pipeline stage.
type StageTiming struct {
	// Stage is the stage's name, e.g. "token-blocking" or "h2-values".
	Stage string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// AllocBytes is the heap allocated while the stage ran
	// (process-wide, so approximate when other goroutines allocate).
	AllocBytes uint64
}

// StageProgress notifies a progress callback that a pipeline stage
// started (Done=false) or finished (Done=true, Timing valid).
type StageProgress struct {
	// Stage is the stage's name.
	Stage string
	// Index and Total locate the stage in the plan (Index is 0-based).
	Index, Total int
	// Done distinguishes completion from start.
	Done bool
	// Timing is the stage's cost; valid only when Done.
	Timing StageTiming
}

// ResolveOption customizes one ResolveContext run.
type ResolveOption func(*resolveOptions)

type resolveOptions struct {
	progress func(StageProgress)
}

// WithProgress registers a callback invoked as each pipeline stage
// starts and finishes. The callback runs synchronously on the resolving
// goroutine; keep it cheap. Cancelling the run's context from inside
// the callback is safe and stops the run promptly.
func WithProgress(fn func(StageProgress)) ResolveOption {
	return func(o *resolveOptions) { o.progress = fn }
}

// Resolve runs the MinoanER matching process on two KBs.
func Resolve(kb1, kb2 *KB, cfg Config) (*Result, error) {
	return ResolveContext(context.Background(), kb1, kb2, cfg)
}

// ResolveContext runs the MinoanER matching process under a context.
// Cancellation aborts between pipeline stages and inside the parallel
// candidate-scoring loops, returning ctx.Err() with no partial Result.
func ResolveContext(ctx context.Context, kb1, kb2 *KB, cfg Config, opts ...ResolveOption) (*Result, error) {
	var o resolveOptions
	for _, opt := range opts {
		opt(&o)
	}
	m, err := core.NewMatcher(kb1.kb, kb2.kb, cfg.internal())
	if err != nil {
		return nil, err
	}
	res, err := m.RunPlan(ctx, m.Plan(), o.pipelineProgress())
	if err != nil {
		return nil, err
	}
	return newResult(res, kb1.kb, kb2.kb), nil
}

// newResult translates a core result into the public Result.
func newResult(res *core.Result, kb1, kb2 *kb.KB) *Result {
	out := &Result{
		ByName:                 len(res.H1),
		ByValue:                len(res.H2),
		ByRank:                 len(res.H3),
		DiscardedByReciprocity: res.DiscardedByH4,
		NameBlocks:             res.NameBlockCount,
		TokenBlocks:            res.TokenBlockCount,
		NameComparisons:        res.NameComparisons,
		TokenComparisons:       res.TokenComparisons,
		PurgedBlocks:           res.Purge.RemovedBlocks,
		StageTimings:           make([]StageTiming, len(res.Stages)),
		pairs:                  res.Matches,
	}
	for i, s := range res.Stages {
		out.StageTimings[i] = stageTiming(s)
	}
	out.Matches = make([]Match, len(res.Matches))
	for i, p := range res.Matches {
		out.Matches[i] = Match{URI1: kb1.URI(p.E1), URI2: kb2.URI(p.E2)}
	}
	return out
}

func stageTiming(s pipeline.StageStat) StageTiming {
	return StageTiming{Stage: s.Stage, Duration: s.Duration, AllocBytes: s.AllocBytes}
}

// GroundTruth is a known partial 1-1 mapping between the entities of
// two KBs, used for evaluation.
type GroundTruth struct {
	gt *eval.GroundTruth
}

// LoadGroundTruth parses "uri1,uri2" CSV lines resolved against the two
// KBs.
func LoadGroundTruth(kb1, kb2 *KB, r io.Reader) (*GroundTruth, error) {
	gt, err := eval.ReadCSV(r, kb1.kb, kb2.kb)
	if err != nil {
		return nil, err
	}
	return &GroundTruth{gt: gt}, nil
}

// LoadGroundTruthFile parses a ground-truth CSV file.
func LoadGroundTruthFile(kb1, kb2 *KB, path string) (*GroundTruth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadGroundTruth(kb1, kb2, f)
}

// Len returns the number of known matches.
func (g *GroundTruth) Len() int { return g.gt.Len() }

// Metrics reports precision, recall, and F1 of a result against a
// ground truth (computed with respect to first-KB descriptions in the
// ground truth, as in the paper).
type Metrics struct {
	TP, FP, FN int
	Precision  float64
	Recall     float64
	F1         float64
}

// String renders metrics as percentages.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.2f%% R=%.2f%% F1=%.2f%%", 100*m.Precision, 100*m.Recall, 100*m.F1)
}

// Evaluate scores the result against a ground truth.
func (r *Result) Evaluate(g *GroundTruth) Metrics {
	m := eval.Evaluate(r.pairs, g.gt)
	return Metrics{TP: m.TP, FP: m.FP, FN: m.FN, Precision: m.Precision, Recall: m.Recall, F1: m.F1}
}

// Benchmark is a synthetic stand-in for one of the paper's evaluation
// datasets, with its ground truth.
type Benchmark struct {
	Name        string
	KB1, KB2    *KB
	GroundTruth *GroundTruth

	ds *datagen.Dataset
}

// BenchmarkNames lists the available synthetic benchmarks in the
// paper's column order: Restaurant, Rexa-DBLP, BBCmusic-DBpedia,
// YAGO-IMDb.
func BenchmarkNames() []string {
	gens := datagen.Generators()
	out := make([]string, len(gens))
	for i, g := range gens {
		out[i] = g.Name
	}
	return out
}

// GenerateBenchmark builds the named synthetic benchmark
// deterministically from a seed. Scale 1.0 is the default size; tests
// typically use 0.05-0.2.
func GenerateBenchmark(name string, seed int64, scale float64) (*Benchmark, error) {
	g, ok := datagen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("minoaner: unknown benchmark %q (have %v)", name, BenchmarkNames())
	}
	ds, err := g.Build(datagen.Options{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	kb1 := &KB{kb: ds.KB1}
	kb2 := &KB{kb: ds.KB2}
	return &Benchmark{
		Name:        ds.Name,
		KB1:         kb1,
		KB2:         kb2,
		GroundTruth: &GroundTruth{gt: ds.GT},
		ds:          ds,
	}, nil
}

// DeltaKB assembles a standalone KB from the subset of the benchmark's
// second-KB triples whose subject is one of the given entity URIs — a
// realistic delta for Index.QueryKB: the selected descriptions exactly
// as KB2 states them, re-derived in isolation (their own statistics,
// with links to unselected entities degrading to dangling values, as
// they would in a genuinely new description batch).
func (b *Benchmark) DeltaKB(name string, uris ...string) (*KB, error) {
	built, _, err := kb.FromTriplesSubset(name, b.ds.Triples2, uris)
	if err != nil {
		return nil, err
	}
	return &KB{kb: built}, nil
}

// WriteKB1 serializes the first KB as N-Triples.
func (b *Benchmark) WriteKB1(w io.Writer) error { return rdf.WriteAll(w, b.ds.Triples1) }

// WriteKB2 serializes the second KB as N-Triples.
func (b *Benchmark) WriteKB2(w io.Writer) error { return rdf.WriteAll(w, b.ds.Triples2) }

// WriteGroundTruth serializes the ground truth as "uri1,uri2" CSV.
func (b *Benchmark) WriteGroundTruth(w io.Writer) error {
	return b.ds.GT.WriteCSV(w, b.ds.KB1, b.ds.KB2)
}
