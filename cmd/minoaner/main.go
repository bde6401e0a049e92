// Command minoaner resolves the entities of two N-Triples knowledge
// bases. It has three subcommands:
//
//	minoaner resolve  -kb1 a.nt -kb2 b.nt [-gt truth.csv] [flags]
//	minoaner snapshot -kb1 a.nt -kb2 b.nt -o index.msnp [flags]
//	minoaner serve    -index index.msnp -addr :8080
//
// resolve runs the batch matching process and prints the matches (and,
// when a ground truth is supplied, precision / recall / F1). snapshot
// builds the full index once and persists it; serve loads a snapshot
// (or builds an index on startup) and answers resolution queries over
// HTTP/JSON. Invoking minoaner with flags but no subcommand is
// equivalent to resolve, preserving the original CLI.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"minoaner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("minoaner: ")

	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "-h" || args[0] == "--help") {
		usage()
		return
	}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "resolve":
			runResolve(args[1:])
		case "snapshot":
			runSnapshot(args[1:])
		case "serve":
			runServe(args[1:])
		case "help":
			usage()
		default:
			fmt.Fprintf(os.Stderr, "minoaner: unknown subcommand %q\n\n", args[0])
			usage()
			os.Exit(2)
		}
		return
	}
	// Legacy invocation: bare flags mean resolve.
	runResolve(args)
}

func usage() {
	fmt.Fprint(os.Stderr, `Usage:

  minoaner resolve  -kb1 a.nt -kb2 b.nt [-gt truth.csv] [flags]
  minoaner snapshot -kb1 a.nt -kb2 b.nt -o index.msnp [flags]
  minoaner snapshot -inspect index.msnp
  minoaner serve    -index index.msnp [-addr :8080]
  minoaner serve    -kb1 a.nt -kb2 b.nt [-addr :8080]
  minoaner serve    -replica -primary http://primary:8080 [-addr :8081]

Run a subcommand with -h for its flags. Flags without a subcommand run
'resolve' (the original CLI).
`)
}

// matchConfig declares the MinoanER parameter flags shared by resolve
// and snapshot on the given flag set.
type matchConfig struct {
	k, n, nameK                *int
	theta                      *float64
	workers                    *int
	noH1, noH2, noH3, noH4     *bool
	kb1Path, kb2Path           *string
	lenient, verbose, useCache *bool
}

func declareMatchFlags(fs *flag.FlagSet) *matchConfig {
	return &matchConfig{
		kb1Path:  fs.String("kb1", "", "first KB (N-Triples file, required)"),
		kb2Path:  fs.String("kb2", "", "second KB (N-Triples file, required)"),
		k:        fs.Int("k", 15, "candidates kept per entity per evidence type (K)"),
		n:        fs.Int("n", 3, "most important relations per entity (N)"),
		nameK:    fs.Int("names", 2, "top attributes per KB serving as names (k)"),
		theta:    fs.Float64("theta", 0.6, "value-vs-neighbor rank trade-off (θ)"),
		workers:  fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)"),
		noH1:     fs.Bool("no-h1", false, "disable the name heuristic"),
		noH2:     fs.Bool("no-h2", false, "disable the value heuristic"),
		noH3:     fs.Bool("no-h3", false, "disable rank aggregation"),
		noH4:     fs.Bool("no-h4", false, "disable the reciprocity filter"),
		lenient:  fs.Bool("lenient", false, "skip malformed or oversize N-Triples lines instead of failing"),
		useCache: fs.Bool("cache", false, "cache parsed KBs next to the input as <file>.mkb and reuse them"),
		verbose:  fs.Bool("v", false, "print per-stage progress and timings to stderr"),
	}
}

func (mc *matchConfig) config() minoaner.Config {
	cfg := minoaner.DefaultConfig()
	cfg.K = *mc.k
	cfg.N = *mc.n
	cfg.NameAttributes = *mc.nameK
	cfg.Theta = *mc.theta
	cfg.Workers = *mc.workers
	cfg.DisableH1 = *mc.noH1
	cfg.DisableH2 = *mc.noH2
	cfg.DisableH3 = *mc.noH3
	cfg.DisableH4 = *mc.noH4
	return cfg
}

// kbsDeclared reports whether either KB path flag was set — serve uses
// it to reject -kb1/-kb2 alongside -replica.
func (mc *matchConfig) kbsDeclared() bool {
	return *mc.kb1Path != "" || *mc.kb2Path != ""
}

// loadKBs loads both KBs per the shared flags (lenient parsing, binary
// caching) and prints their statistics.
func (mc *matchConfig) loadKBs(fs *flag.FlagSet) (*minoaner.KB, *minoaner.KB) {
	if *mc.kb1Path == "" || *mc.kb2Path == "" {
		fs.Usage()
		os.Exit(2)
	}
	load := loadPlain
	if *mc.lenient {
		load = loadLenient
	}
	if *mc.useCache {
		parse := load // cache misses honor -lenient too
		load = func(name, path string) (*minoaner.KB, int, error) {
			return loadCached(name, path, parse)
		}
	}
	kb1, _, err := load("KB1", *mc.kb1Path)
	if err != nil {
		log.Fatalf("loading %s: %v", *mc.kb1Path, err)
	}
	kb2, _, err := load("KB2", *mc.kb2Path)
	if err != nil {
		log.Fatalf("loading %s: %v", *mc.kb2Path, err)
	}
	fmt.Fprintf(os.Stderr, "KB1: %+v\n", kb1.Stats())
	fmt.Fprintf(os.Stderr, "KB2: %+v\n", kb2.Stats())
	return kb1, kb2
}

// progressOptions returns the -v stage-timing progress option, if
// enabled.
func (mc *matchConfig) progressOptions() []minoaner.ResolveOption {
	if !*mc.verbose {
		return nil
	}
	return []minoaner.ResolveOption{minoaner.WithProgress(func(p minoaner.StageProgress) {
		if !p.Done {
			return
		}
		fmt.Fprintf(os.Stderr, "stage %2d/%d %-20s %12v %10.1f MB\n",
			p.Index+1, p.Total, p.Stage, p.Timing.Duration.Round(10*time.Microsecond),
			float64(p.Timing.AllocBytes)/(1<<20))
	})}
}

// loadPlain parses strictly; it never skips a line.
func loadPlain(name, path string) (*minoaner.KB, int, error) {
	kb, err := minoaner.LoadKBFile(name, path)
	return kb, 0, err
}

// loadLenient skips malformed lines, reporting how many were dropped.
func loadLenient(name, path string) (*minoaner.KB, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	kb, skipped, err := minoaner.LoadKBLenient(name, f)
	if err != nil {
		return nil, 0, err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "%s: skipped %d malformed line(s)\n", name, skipped)
	}
	return kb, skipped, nil
}

// loadCached reuses <path>.mkb when it exists and is newer than the
// N-Triples file; otherwise it parses the file with the given loader
// (which reports the malformed lines it skipped) and, when the parse
// skipped none, writes the cache for the next run. A lenient parse that
// dropped lines is not cached: a later strict run must see the file's
// errors, not the lenient result.
func loadCached(name, path string, parse func(name, path string) (*minoaner.KB, int, error)) (*minoaner.KB, int, error) {
	cachePath := path + ".mkb"
	if f, err := os.Open(cachePath); err == nil {
		defer f.Close()
		if cacheStale(f, path) {
			fmt.Fprintf(os.Stderr, "cache %s is older than %s; re-parsing\n", cachePath, path)
		} else if kb, err := minoaner.ReadKBBinary(f); err == nil {
			fmt.Fprintf(os.Stderr, "loaded %s from cache %s\n", name, cachePath)
			return kb, 0, nil
		} else {
			fmt.Fprintf(os.Stderr, "cache %s unusable (%v); re-parsing\n", cachePath, err)
		}
	}
	kb, skipped, err := parse(name, path)
	if err != nil || skipped > 0 {
		return kb, skipped, err
	}
	f, err := os.Create(cachePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cannot write cache %s: %v\n", cachePath, err)
		return kb, 0, nil
	}
	defer f.Close()
	if err := kb.WriteBinary(f); err != nil {
		fmt.Fprintf(os.Stderr, "cannot write cache %s: %v\n", cachePath, err)
	}
	return kb, 0, nil
}

// cacheStale reports whether the source file was written after the
// cache (or at the same instant, as far as the file system can tell). A
// source that cannot be examined leaves the verdict to the parse that
// follows a stale cache.
func cacheStale(cache *os.File, sourcePath string) bool {
	ci, err := cache.Stat()
	if err != nil {
		return true
	}
	si, err := os.Stat(sourcePath)
	if err != nil {
		return true
	}
	return !ci.ModTime().After(si.ModTime())
}
