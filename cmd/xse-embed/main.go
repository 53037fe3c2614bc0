// Command xse-embed finds an information-preserving schema embedding
// between two DTD files and writes it in the textual mapping format
// understood by xse-map and xse-query.
//
// Usage:
//
//	xse-embed -source s1.dtd -target s2.dtd [-source-root r1] [-target-root r2]
//	          [-att lexical|uniform] [-threshold 0.5]
//	          [-heuristic random|quality|indepset|exact] [-seed 1]
//	          [-restarts 40] [-timeout 30s] [-max-input 67108864]
//	          [-explain] [-o mapping.xse]
//
// The shared telemetry flags (-debug-addr, -trace-out, -cpuprofile,
// -memprofile; see internal/obs) are also accepted; -v appends the
// metric registry summary to the search statistics on stderr.
//
// Exit codes: 0 success, 1 internal error, 2 usage, 3 invalid input
// (unreadable or malformed schemas, resource limits exceeded),
// 4 timeout or cancellation, 5 no embedding found.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/search"
)

const (
	exitInternal = 1
	exitUsage    = 2
	exitInvalid  = 3
	exitTimeout  = 4
	exitNotFound = 5
)

// cleanup is run by fatalf before exiting, so profiles, traces, the
// wide event (carrying the real exit code) and the debug server are
// flushed even on fatal paths.
var cleanup = func(code int) {}

func main() {
	var (
		sourceFile = flag.String("source", "", "source DTD file (required)")
		targetFile = flag.String("target", "", "target DTD file (required)")
		sourceRoot = flag.String("source-root", "", "source root element (default: first declared)")
		targetRoot = flag.String("target-root", "", "target root element (default: first declared)")
		attKind    = flag.String("att", "lexical", "similarity matrix: lexical or uniform")
		threshold  = flag.Float64("threshold", 0.5, "lexical similarity threshold")
		heuristic  = flag.String("heuristic", "random", "random, quality, indepset or exact")
		seed       = flag.Int64("seed", 1, "random seed")
		restarts   = flag.Int("restarts", 40, "max random restarts")
		parallel   = flag.Int("parallel", 1, "worker goroutines for restarts")
		timeout    = flag.Duration("timeout", 0, "bound the embedding search (0 = no deadline)")
		maxInput   = flag.Int("max-input", 0, "max schema file size in bytes (0 = default 64MiB, -1 = unlimited)")
		output     = flag.String("o", "", "output file (default: stdout)")
		verbose    = flag.Bool("v", false, "print search statistics to stderr")
		explain    = flag.Bool("explain", false, "print the per-restart search ledger (rejection counts by constraint class, abort reasons) to stderr")
	)
	tel := obs.NewCLI("xse-embed", flag.CommandLine)
	flag.Parse()
	if *sourceFile == "" || *targetFile == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	ctx, err := tel.Start(context.Background())
	if err != nil {
		fatalf(exitInternal, "%v", err)
	}
	cleanup = func(code int) { tel.SetExit(code); tel.Close() }
	defer tel.Close()
	lim := guard.Limits{MaxInputBytes: *maxInput}

	src := mustSchema(*sourceFile, *sourceRoot, lim)
	tgt := mustSchema(*targetFile, *targetRoot, lim)

	var att *embedding.SimMatrix
	switch *attKind {
	case "lexical":
		att = match.Lexical(src, tgt, *threshold)
	case "uniform":
		att = embedding.UniformSim(src, tgt)
	default:
		fatalf(exitUsage, "unknown -att %q (want lexical or uniform)", *attKind)
	}

	h, err := search.ParseHeuristic(*heuristic)
	if err != nil {
		fatalf(exitUsage, "unknown -heuristic %q", *heuristic)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := search.FindCtx(ctx, src, tgt, att, search.Options{
		Heuristic:   h,
		Seed:        *seed,
		MaxRestarts: *restarts,
		Parallel:    *parallel,
		Explain:     *explain,
	})
	// The ledger prints on every outcome — a timeout's or not-found's
	// rejection breakdown is exactly what -explain is for.
	if *explain && res != nil {
		search.WriteLedger(os.Stderr, res)
	}
	if *verbose && res != nil {
		fmt.Fprintf(os.Stderr, "heuristic=%s restarts=%d steps=%d paths=%d elapsed=%s exhausted=%v\n",
			h, res.Restarts, res.Steps, res.PathsEnumerated, res.Elapsed, res.Exhausted)
		// Cache effectiveness and the rest of the search counters come
		// from the process registry (the same numbers /metrics serves).
		obs.WriteSummary(os.Stderr, obs.Default())
	}
	if err != nil {
		if errors.Is(err, search.ErrDeadline) || errors.Is(err, search.ErrCanceled) {
			fatalf(exitTimeout, "%v after %s (restarts=%d, paths enumerated=%d)",
				err, res.Elapsed.Round(time.Millisecond), res.Restarts, res.PathsEnumerated)
		}
		fatalf(exitInternal, "search: %v", err)
	}
	if res.Embedding == nil {
		if res.Exhausted {
			fatalf(exitNotFound, "no embedding exists within the search bounds")
		}
		fatalf(exitNotFound, "no embedding found (budget exhausted; try -restarts or -att uniform)")
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "quality=%.2f of %d types\n", res.Quality, src.Size())
	}
	text := res.Embedding.Marshal()
	if *output == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*output, []byte(text), 0o644); err != nil {
		fatalf(exitInternal, "write %s: %v", *output, err)
	}
}

func mustSchema(path, root string, lim guard.Limits) *dtd.DTD {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf(exitInvalid, "read %s: %v", path, err)
	}
	d, err := dtd.ParseLimits(string(data), root, lim)
	if err != nil {
		fatalf(exitInvalid, "%s: %v", path, err)
	}
	return d
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xse-embed: "+format+"\n", args...)
	cleanup(code)
	os.Exit(code)
}
