package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minoaner"
)

// runServe loads (or builds) an index and serves resolution queries
// over HTTP/JSON until interrupted. With -replica it instead
// bootstraps from a primary server's snapshot and tails its mutation
// journal, serving reads that are bit-identical to the primary's at
// every epoch it reaches. SIGINT or SIGTERM triggers a graceful
// shutdown that drains in-flight requests (a second signal kills the
// process outright).
func runServe(args []string) {
	fs := flag.NewFlagSet("minoaner serve", flag.ExitOnError)
	mc := declareMatchFlags(fs)
	indexPath := fs.String("index", "", "snapshot file to serve (from 'minoaner snapshot'); overrides -kb1/-kb2")
	mutable := fs.Bool("mutable", false, "enable POST /upsert and /delete: live entity mutations with atomic epoch swaps (requires an index with retained sources)")
	replica := fs.Bool("replica", false, "serve as a read replica: bootstrap from -primary's /snapshot and tail its /journal (conflicts with -mutable, -index, -kb1/-kb2)")
	primary := fs.String("primary", "", "primary server base URL to replicate from (e.g. http://primary:8080); requires -replica")
	poll := fs.Duration("poll", 500*time.Millisecond, "replica journal poll interval when caught up")
	addr := fs.String("addr", ":8080", "listen address")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "maximum duration for reading one request (body included)")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "maximum duration for writing one response")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "how long a graceful shutdown waits for in-flight requests")
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ix *minoaner.Index
	var serverOpts []minoaner.ServerOption
	start := time.Now()
	switch {
	case *replica:
		if *primary == "" {
			log.Fatal("-replica requires -primary URL")
		}
		if *mutable {
			log.Fatal("-replica conflicts with -mutable: replicas apply only the primary's mutations")
		}
		if *indexPath != "" || mc.kbsDeclared() {
			log.Fatal("-replica conflicts with -index and -kb1/-kb2: replicas bootstrap from the primary's snapshot")
		}
		rep, err := minoaner.NewReplica(*primary,
			minoaner.WithReplicaPoll(*poll),
			minoaner.WithReplicaJitterSeed(uint64(time.Now().UnixNano())))
		if err != nil {
			log.Fatal(err)
		}
		for attempt := 1; ; attempt++ {
			if _, err = rep.Bootstrap(ctx); err == nil {
				break
			}
			if ctx.Err() != nil || attempt >= 30 {
				log.Fatalf("bootstrapping from %s: %v", *primary, err)
			}
			fmt.Fprintf(os.Stderr, "bootstrap attempt %d from %s failed (%v), retrying\n", attempt, *primary, err)
			time.Sleep(time.Second)
		}
		ix = rep.Index()
		fmt.Fprintf(os.Stderr, "replica bootstrapped from %s at epoch %d in %v\n",
			*primary, ix.Epoch(), time.Since(start).Round(time.Millisecond))
		serverOpts = append(serverOpts, minoaner.WithReplica(rep))
		go func() {
			if err := rep.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "replication stopped: %v\n", err)
			}
		}()
	case *indexPath != "":
		// mmap the snapshot and decode lazily, so the server answers its
		// first query almost immediately; the heavier delta-path
		// structures decode on first use.
		var err error
		ix, err = minoaner.OpenIndexFile(*indexPath)
		if err != nil {
			log.Fatalf("loading %s: %v", *indexPath, err)
		}
		fmt.Fprintf(os.Stderr, "index %s mapped in %v\n", *indexPath, time.Since(start).Round(time.Millisecond))
	default:
		kb1, kb2 := mc.loadKBs(fs)
		var err error
		ix, err = minoaner.BuildIndexContext(context.Background(), kb1, kb2, mc.config(), mc.progressOptions()...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "index built in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *mutable {
		if !ix.Mutable() {
			log.Fatal("-mutable: this index is read-only (its KBs lack retained source triples); rebuild the snapshot from .nt inputs")
		}
		serverOpts = append(serverOpts, minoaner.WithMutations())
	}
	// The startup summary sticks to open-time state (Stats would force
	// a mapped index to decode its KB bulk before serving).
	modeNote := ""
	switch {
	case *mutable:
		modeNote = ", mutable"
	case *replica:
		modeNote = ", replica"
	}
	fmt.Fprintf(os.Stderr, "serving %d matches over %d+%d entities (epoch %d%s)\n",
		ix.NumMatches(), ix.KB1().Len(), ix.KB2().Len(), ix.Epoch(), modeNote)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           minoaner.NewServer(ix, serverOpts...),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // second signal kills the process outright
		fmt.Fprintln(os.Stderr, "shutting down, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("shutdown: %v", err)
		}
		fmt.Fprintln(os.Stderr, "bye")
	}
}
