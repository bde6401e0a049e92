package main

import (
	"bufio"
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

// runResolve is the batch matching subcommand (and the legacy bare-flag
// CLI).
func runResolve(args []string) {
	fs := flag.NewFlagSet("minoaner resolve", flag.ExitOnError)
	mc := declareMatchFlags(fs)
	gtPath := fs.String("gt", "", "optional ground truth CSV (uri1,uri2 lines)")
	quiet := fs.Bool("quiet", false, "suppress the match listing")
	stream := fs.Bool("stream", false, "anytime mode: emit each match as soon as it is confirmed, best first")
	maxPairs := fs.Int("max-pairs", 0, "with -stream, stop after this many matches (0 = unlimited)")
	maxComparisons := fs.Int64("max-comparisons", 0, "with -stream, stop after this many candidate comparisons (0 = unlimited)")
	streamBudget := fs.Duration("stream-budget", 0, "with -stream, wall-clock budget (0 = unlimited)")
	strategy := fs.String("strategy", "weight", "with -stream, pair scheduler: weight | blocks")
	fs.Parse(args)

	kb1, kb2 := mc.loadKBs(fs)
	cfg := mc.config()

	// Ctrl-C cancels the run between pipeline stages and inside the
	// parallel candidate loops. The handler uninstalls itself once the
	// first signal fires, so a second Ctrl-C kills the process outright
	// even if a stage without internal cancellation checks is running.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	if *stream {
		streamResolve(ctx, kb1, kb2, cfg, streamFlags{
			maxPairs:       *maxPairs,
			maxComparisons: *maxComparisons,
			budget:         *streamBudget,
			strategy:       *strategy,
			quiet:          *quiet,
		})
		return
	}

	res, err := minoaner.ResolveContext(ctx, kb1, kb2, cfg, mc.progressOptions()...)
	if errors.Is(err, context.Canceled) {
		log.Fatal("interrupted")
	}
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		// One buffered writer, flushed before the summary: a write(2) per
		// match is thousands of syscalls a run, and a failed write (a full
		// disk behind "> matches.csv") must not exit 0.
		w := bufio.NewWriter(os.Stdout)
		for _, m := range res.Matches {
			fmt.Fprintf(w, "%s,%s\n", m.URI1, m.URI2)
		}
		if err := w.Flush(); err != nil {
			log.Fatalf("writing matches: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "matches: %d (H1=%d H2=%d H3=%d, H4 discarded %d)\n",
		len(res.Matches), res.ByName, res.ByValue, res.ByRank, res.DiscardedByReciprocity)
	fmt.Fprintf(os.Stderr, "blocks: |BN|=%d ||BN||=%d |BT|=%d ||BT||=%d purged=%d\n",
		res.NameBlocks, res.NameComparisons, res.TokenBlocks, res.TokenComparisons, res.PurgedBlocks)

	if *gtPath != "" {
		gt, err := minoaner.LoadGroundTruthFile(kb1, kb2, *gtPath)
		if err != nil {
			log.Fatalf("loading %s: %v", *gtPath, err)
		}
		m := res.Evaluate(gt)
		fmt.Fprintf(os.Stderr, "evaluation: %s (TP=%d FP=%d FN=%d of %d)\n",
			m, m.TP, m.FP, m.FN, gt.Len())
	}
}

// streamFlags carries the -stream mode options.
type streamFlags struct {
	maxPairs       int
	maxComparisons int64
	budget         time.Duration
	strategy       string
	quiet          bool
}

// streamResolve runs the anytime resolution: matches print as
// "uri1,uri2,score,heuristic" lines the moment they are confirmed,
// best pairs first, and the stderr summary reports the time to the
// first match alongside the totals.
func streamResolve(ctx context.Context, kb1, kb2 *minoaner.KB, cfg minoaner.Config, sf streamFlags) {
	opts := []minoaner.StreamOption{}
	if sf.maxPairs > 0 {
		opts = append(opts, minoaner.WithMaxPairs(sf.maxPairs))
	}
	if sf.maxComparisons > 0 {
		opts = append(opts, minoaner.WithMaxComparisons(sf.maxComparisons))
	}
	switch sf.strategy {
	case "weight":
		opts = append(opts, minoaner.WithStreamStrategy(minoaner.WeightOrdered))
	case "blocks":
		opts = append(opts, minoaner.WithStreamStrategy(minoaner.BlockRoundRobin))
	default:
		log.Fatalf("unknown -strategy %q (want weight or blocks)", sf.strategy)
	}
	if sf.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sf.budget)
		defer cancel()
	}

	start := time.Now()
	ch, err := minoaner.ResolveStream(ctx, kb1, kb2, cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	var (
		count int
		ttfm  time.Duration
	)
	w := bufio.NewWriter(os.Stdout)
	for sp := range ch {
		if count == 0 {
			ttfm = time.Since(start)
		}
		count++
		if !sf.quiet {
			fmt.Fprintf(w, "%s,%s,%.6f,%s\n", sp.URI1, sp.URI2, sp.Score, sp.Heuristic)
		}
	}
	w.Flush()
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted")
	} else if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "wall-clock budget reached")
	}
	if count > 0 {
		fmt.Fprintf(os.Stderr, "matches: %d, first after %v, drained in %v\n",
			count, ttfm.Round(10*time.Microsecond), time.Since(start).Round(10*time.Microsecond))
	} else {
		fmt.Fprintf(os.Stderr, "matches: 0 (drained in %v)\n", time.Since(start).Round(10*time.Microsecond))
	}
}
