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
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
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

// loadCached reuses <path>.mkb when it was made from the N-Triples
// file as it is now — same size, same SHA-256 of its bytes, whatever
// the timestamps say; otherwise it parses the file with the given
// loader (which reports the malformed lines it skipped) and, when the
// parse skipped none, writes the cache for the next run. A lenient
// parse that dropped lines is not cached: a later strict run must see
// the file's errors, not the lenient result.
func loadCached(name, path string, parse func(name, path string) (*minoaner.KB, int, error)) (*minoaner.KB, int, error) {
	cachePath := path + ".mkb"
	src, srcErr := digestSource(path)
	if f, err := os.Open(cachePath); err == nil && srcErr == nil {
		defer f.Close()
		r := bufio.NewReader(f)
		if made, err := readSourceRecord(r); err != nil {
			fmt.Fprintf(os.Stderr, "cache %s unusable (%v); re-parsing\n", cachePath, err)
		} else if made != src {
			fmt.Fprintf(os.Stderr, "cache %s was made from other contents of %s; re-parsing\n", cachePath, path)
		} else if kb, err := minoaner.ReadKBBinary(r); err == nil {
			fmt.Fprintf(os.Stderr, "loaded %s from cache %s\n", name, cachePath)
			return kb, 0, nil
		} else {
			fmt.Fprintf(os.Stderr, "cache %s unusable (%v); re-parsing\n", cachePath, err)
		}
	}
	kb, skipped, err := parse(name, path)
	if err != nil || skipped > 0 || srcErr != nil {
		return kb, skipped, err
	}
	f, err := os.Create(cachePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cannot write cache %s: %v\n", cachePath, err)
		return kb, 0, nil
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	writeSourceRecord(w, src)
	if err := kb.WriteBinary(w); err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cannot write cache %s: %v\n", cachePath, err)
	}
	return kb, 0, nil
}

// sourceRecord identifies the bytes a cache was parsed from. A cache
// file is the record — magic, uvarint size, SHA-256 — followed by the
// KB's binary image.
type sourceRecord struct {
	size uint64
	sum  [sha256.Size]byte
}

var cacheMagic = [4]byte{'M', 'K', 'B', 'C'}

// digestSource reads the file at path whole and records its size and
// SHA-256.
func digestSource(path string) (sourceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return sourceRecord{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return sourceRecord{}, err
	}
	rec := sourceRecord{size: uint64(n)}
	h.Sum(rec.sum[:0])
	return rec, nil
}

func writeSourceRecord(w *bufio.Writer, rec sourceRecord) {
	w.Write(cacheMagic[:])
	w.Write(binary.AppendUvarint(nil, rec.size))
	w.Write(rec.sum[:])
}

// readSourceRecord reads the record a cache starts with; a file
// without one (a bare KB image, as older builds cached) is an error.
func readSourceRecord(r *bufio.Reader) (sourceRecord, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != cacheMagic {
		return sourceRecord{}, errors.New("no source record")
	}
	var rec sourceRecord
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return sourceRecord{}, fmt.Errorf("source record: %w", err)
	}
	rec.size = size
	if _, err := io.ReadFull(r, rec.sum[:]); err != nil {
		return sourceRecord{}, fmt.Errorf("source record: %w", err)
	}
	return rec, nil
}
