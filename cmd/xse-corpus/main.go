// Command xse-corpus drives the real-world schema-evolution corpus
// workload: for every checked-in DTD pair it searches for an embedding
// under each heuristic, migrates generated instance documents,
// validates them against the target schema, cross-checks the streaming
// migration engine against the tree path byte-for-byte and checks
// translated-query preservation, then reports a per-(pair, heuristic)
// quality table — the heuristic shoot-out on realistic schemas.
//
// Usage:
//
//	xse-corpus [-json] [-out FILE] [-pairs dblp,xmark] [-heuristics random,quality,indepset]
//	           [-docs 3] [-doc-nodes 400] [-seed 1] [-random-queries 4]
//	           [-restarts 200] [-local-options 64] [-search-timeout 30s] [-timeout 0] [-q]
//	xse-corpus -emit-corpus REPOROOT
//
// Exit codes: 0 every pair embedded and the pipeline is violation
// free, 1 internal error, 2 usage, 4 timeout or cancellation,
// 5 a pair no heuristic could embed, 6 pipeline violations (failed or
// non-conforming migrations, query-preservation mismatches,
// stream-vs-tree migration divergences).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/search"
)

const (
	exitInternal  = 1
	exitUsage     = 2
	exitTimeout   = 4
	exitUncovered = 5
	exitViolation = 6
)

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit the machine-readable JSON report on stdout")
		outFile    = flag.String("out", "", "also write the JSON report to this file")
		pairsFlag  = flag.String("pairs", "", "comma-separated pair names (default: all)")
		heurFlag   = flag.String("heuristics", "random,quality,indepset", "comma-separated heuristics to compare")
		docs       = flag.Int("docs", 3, "instance documents migrated per found embedding")
		docNodes   = flag.Int("doc-nodes", 400, "approximate node count per generated document")
		seed       = flag.Int64("seed", 1, "base random seed")
		randomQ    = flag.Int("random-queries", 4, "generated queries added to each pair's curated set")
		restarts   = flag.Int("restarts", 200, "search restart budget per heuristic")
		localOpts  = flag.Int("local-options", 64, "IndepSet per-production sampling bound")
		searchTO   = flag.Duration("search-timeout", 0, "deadline per individual search (0 = none)")
		timeout    = flag.Duration("timeout", 0, "overall deadline (0 = none)")
		quiet      = flag.Bool("q", false, "suppress progress output")
		corpusRoot = flag.String("emit-corpus", "", "seed parser fuzz corpora under this repository root and exit")
	)
	tel := obs.NewCLI("xse-corpus", flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "xse-corpus: unexpected arguments %v\n", flag.Args())
		os.Exit(exitUsage)
	}
	if *docs < 0 || *docNodes < 0 || *randomQ < 0 || *restarts < 0 || *localOpts < 0 {
		fmt.Fprintln(os.Stderr, "xse-corpus: invalid flag values")
		os.Exit(exitUsage)
	}

	if *corpusRoot != "" {
		n, err := corpus.EmitFuzzSeeds(*corpusRoot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xse-corpus: emit corpus: %v\n", err)
			os.Exit(exitInternal)
		}
		fmt.Printf("wrote %d fuzz corpus files under %s\n", n, *corpusRoot)
		return
	}

	var heuristics []search.Heuristic
	for _, name := range strings.Split(*heurFlag, ",") {
		trimmed := strings.TrimSpace(name)
		if trimmed == "" {
			continue
		}
		h, err := search.ParseHeuristic(trimmed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xse-corpus: unknown heuristic %q (want random, quality, indepset or exact)\n", name)
			os.Exit(exitUsage)
		}
		heuristics = append(heuristics, h)
	}

	ctx, err := tel.Start(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "xse-corpus: %v\n", err)
		os.Exit(exitInternal)
	}
	defer tel.Close()
	exit := func(code int) {
		tel.SetExit(code)
		tel.Close()
		os.Exit(code)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := corpus.RunConfig{
		Heuristics:    heuristics,
		Seed:          *seed,
		Docs:          *docs,
		DocNodes:      *docNodes,
		RandomQueries: *randomQ,
		SearchTimeout: *searchTO,
		MaxRestarts:   *restarts,
		LocalOptions:  *localOpts,
	}
	if *pairsFlag != "" {
		for _, p := range strings.Split(*pairsFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Pairs = append(cfg.Pairs, p)
			}
		}
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "xse-corpus: "+format+"\n", args...)
		}
	}

	start := time.Now()
	rep, err := corpus.Run(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "xse-corpus: stopped: %v\n", err)
			exit(exitTimeout)
		}
		fmt.Fprintf(os.Stderr, "xse-corpus: %v\n", err)
		if errors.Is(err, corpus.ErrUnknownPair) {
			exit(exitUsage)
		}
		exit(exitInternal)
	}

	if *outFile != "" || *jsonOut {
		blob, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xse-corpus: %v\n", err)
			exit(exitInternal)
		}
		if *outFile != "" {
			if err := os.WriteFile(*outFile, append(blob, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "xse-corpus: %v\n", err)
				exit(exitInternal)
			}
		}
		if *jsonOut {
			fmt.Printf("%s\n", blob)
		}
	}
	if !*jsonOut {
		fmt.Print(rep.Table())
		fmt.Println()
		fmt.Print(rep.RejectionTable())
	}
	fmt.Fprintf(os.Stderr, "xse-corpus: %d pairs in %.1fs\n", len(rep.Pairs), time.Since(start).Seconds())

	if un := rep.Uncovered(); len(un) > 0 {
		fmt.Fprintf(os.Stderr, "xse-corpus: no heuristic embedded: %s\n", strings.Join(un, ", "))
		exit(exitUncovered)
	}
	if v := rep.Violations(); v > 0 {
		fmt.Fprintf(os.Stderr, "xse-corpus: %d pipeline violations\n", v)
		exit(exitViolation)
	}
}
