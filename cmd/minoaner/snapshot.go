package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"minoaner"
)

// runSnapshot builds the full index for a KB pair and persists it, or
// inspects an existing snapshot.
func runSnapshot(args []string) {
	fs := flag.NewFlagSet("minoaner snapshot", flag.ExitOnError)
	mc := declareMatchFlags(fs)
	out := fs.String("o", "index.msnp", "output snapshot file")
	inspect := fs.String("inspect", "", "describe an existing snapshot instead of building one")
	compact := fs.String("compact", "", "load an existing snapshot, drop its mutation journal and orphaned terms, and rewrite it (to -o)")
	fs.Parse(args)

	if *inspect != "" {
		inspectSnapshot(*inspect)
		return
	}
	if *compact != "" {
		compactSnapshot(*compact, *out)
		return
	}

	kb1, kb2 := mc.loadKBs(fs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	start := time.Now()
	ix, err := minoaner.BuildIndexContext(ctx, kb1, kb2, mc.config(), mc.progressOptions()...)
	if errors.Is(err, context.Canceled) {
		log.Fatal("interrupted")
	}
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(start)
	if err := minoaner.SaveIndexFile(*out, ix); err != nil {
		log.Fatalf("writing %s: %v", *out, err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Fprintf(os.Stderr, "index built in %v: %d matches (H1=%d H2=%d H3=%d), |BN|=%d |BT|=%d\n",
		built.Round(time.Millisecond), st.Matches, st.ByName, st.ByValue, st.ByRank,
		st.NameBlocks, st.TokenBlocks)
	fmt.Fprintf(os.Stderr, "snapshot: %s (%.1f MB)\n", *out, float64(info.Size())/(1<<20))
}

// compactSnapshot rewrites a snapshot with its journal dropped (the
// epoch number survives) and its term tables compacted.
func compactSnapshot(in, out string) {
	start := time.Now()
	ix, err := minoaner.LoadIndexFile(in)
	if err != nil {
		log.Fatalf("loading %s: %v", in, err)
	}
	entries := len(ix.Journal())
	ix.Compact()
	if err := minoaner.SaveIndexFile(out, ix); err != nil {
		log.Fatalf("writing %s: %v", out, err)
	}
	info, err := os.Stat(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "compacted %s -> %s in %v: epoch %d kept, %d journal entries dropped (%.1f MB)\n",
		in, out, time.Since(start).Round(time.Millisecond), ix.Epoch(), entries, float64(info.Size())/(1<<20))
}

// inspectSnapshot describes a snapshot from its section directory —
// O(header), not O(index): the KB and substrate bulk is never decoded,
// so inspecting a multi-gigabyte snapshot is as fast as a tiny one.
func inspectSnapshot(path string) {
	start := time.Now()
	si, err := minoaner.InspectIndexFile(path)
	if err != nil {
		log.Fatalf("inspecting %s: %v", path, err)
	}
	cfg := si.Config
	fmt.Printf("snapshot %s (inspected in %v, %.1f MB)\n",
		path, time.Since(start).Round(time.Millisecond), float64(si.Size)/(1<<20))
	fmt.Printf("  format: MSNP v%d\n", si.Version)
	fmt.Printf("  KB1: %s — %d entities, %d triples\n", si.KB1.Name, si.KB1.Entities, si.KB1.Triples)
	fmt.Printf("  KB2: %s — %d entities, %d triples\n", si.KB2.Name, si.KB2.Entities, si.KB2.Triples)
	fmt.Printf("  config: K=%d N=%d names=%d theta=%g\n", cfg.K, cfg.N, cfg.NameAttributes, cfg.Theta)
	fmt.Printf("  blocks: |BN|=%d ||BN||=%d |BT|=%d ||BT||=%d purged=%d\n",
		si.NameBlocks, si.NameComparisons, si.TokenBlocks, si.TokenComparisons, si.PurgedBlocks)
	fmt.Printf("  matches: %d (H1=%d H2=%d H3=%d, H4 discarded %d)\n",
		si.Matches, si.ByName, si.ByValue, si.ByRank, si.DiscardedByH4)
	if si.Mutable() {
		fmt.Printf("  mutability: sources retained — epoch %d, %d journal entries (serve -mutable accepts /upsert and /delete)\n",
			si.Epoch, si.JournalEntries)
	} else {
		fmt.Printf("  mutability: read-only (no retained sources; rebuild the snapshot from .nt inputs to mutate it)\n")
	}
}
