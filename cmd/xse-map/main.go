// Command xse-map applies a schema embedding to XML documents: forward
// (σd, producing a target-conformant document), inverse (σd⁻¹,
// recovering the source), or emitting the equivalent XSLT stylesheets.
//
// Usage:
//
//	xse-map -mapping m.xse -source s1.dtd -target s2.dtd [flags] [doc.xml]
//
//	-invert        apply σd⁻¹ instead of σd
//	-xslt          print the stylesheet instead of transforming
//	-via-xslt      transform by running the generated stylesheet
//	-batch dir     migrate every *.xml in dir (bounded worker pool)
//	-out dir       batch output directory (default: discard outputs)
//	-j n           batch worker count (default: GOMAXPROCS)
//	-timeout d     abort the whole run after duration d (exit 4)
//	-max-input n   max input size in bytes (0 = default, -1 = unlimited)
//	-o file        output file (default stdout; single-document mode)
//	-v             print the metric registry summary on stderr
//
// Telemetry flags shared by every command (see internal/obs):
//
//	-debug-addr a       serve /metrics, /metrics.json, /debug/vars and
//	                    /debug/pprof on a (":0" picks a free port)
//	-debug-linger d     keep the debug server up d after the run
//	-trace-out f        write spans to f as Chrome trace_event JSON
//	-cpuprofile f       write a CPU profile to f
//	-memprofile f       write a heap profile to f
//	-slow-threshold d   log batch documents slower than d
//
// Both modes run the same pipeline (core.RunBatch): by default each
// document streams through the compiled σd or σd⁻¹ in O(depth) memory;
// -via-xslt parses it, runs the stylesheet and validates the result.
// A single document is a batch of one written to stdout or -o; a
// failing document leaves no -o file behind. In batch mode each
// document succeeds or fails on its own: a malformed file is reported
// and skipped without stopping the run, and the summary line on stderr
// reports docs/sec and MB/sec. The exit code reflects the worst
// per-document outcome.
//
// Exit codes: 0 success, 1 internal error, 2 usage, 3 invalid input
// (unreadable/malformed schemas, mappings or documents, resource
// limits exceeded), 4 timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

const (
	exitInternal = 1
	exitUsage    = 2
	exitInvalid  = 3
	exitTimeout  = 4
)

// cleanup is run by fatalf before exiting, so profiles, traces, the
// wide event (carrying the real exit code) and the debug server are
// flushed even on fatal paths.
var cleanup = func(code int) {}

func main() {
	var (
		mappingFile = flag.String("mapping", "", "embedding file from xse-embed (required)")
		sourceFile  = flag.String("source", "", "source DTD file (required)")
		targetFile  = flag.String("target", "", "target DTD file (required)")
		sourceRoot  = flag.String("source-root", "", "source root element")
		targetRoot  = flag.String("target-root", "", "target root element")
		invert      = flag.Bool("invert", false, "apply the inverse mapping σd⁻¹")
		emitXSLT    = flag.Bool("xslt", false, "print the XSLT stylesheet and exit")
		viaXSLT     = flag.Bool("via-xslt", false, "transform by executing the generated stylesheet")
		batchDir    = flag.String("batch", "", "migrate every *.xml document in this directory")
		outDir      = flag.String("out", "", "batch output directory (default: discard outputs)")
		workers     = flag.Int("j", 0, "batch worker count (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "abort the run after this duration (0 = no deadline)")
		maxInput    = flag.Int("max-input", 0, "max input size in bytes (0 = default 64MiB, -1 = unlimited)")
		output      = flag.String("o", "", "output file (default: stdout)")
		verbose     = flag.Bool("v", false, "print telemetry counters to stderr after the run")
		slowDocs    = flag.Duration("slow-threshold", 0, "log batch documents slower than this end to end (0 = off)")
	)
	tel := obs.NewCLI("xse-map", flag.CommandLine)
	flag.Parse()
	if *mappingFile == "" || *sourceFile == "" || *targetFile == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	ctx, err := tel.Start(context.Background())
	if err != nil {
		fatalf(exitInternal, "%v", err)
	}
	cleanup = func(code int) { tel.SetExit(code); tel.Close() }
	defer tel.Close()
	if *timeout > 0 {
		// Every mapping stage is context-aware; the deadline propagates
		// through parse, σd/σd⁻¹, XSLT execution and the batch pool, and
		// surfaces as a typed CancelError mapped to exit 4.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	lim := core.Limits{MaxInputBytes: *maxInput}

	src := mustSchema(*sourceFile, *sourceRoot, lim)
	tgt := mustSchema(*targetFile, *targetRoot, lim)
	sigma := mustMapping(*mappingFile, src, tgt)

	var docs []core.BatchDoc
	switch {
	case *batchDir != "":
		if flag.NArg() != 0 || *emitXSLT {
			fatalf(exitUsage, "-batch is incompatible with positional documents and -xslt")
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatalf(exitInternal, "%v", err)
			}
		}
		docs, err = core.BatchDirDocs(*batchDir, *outDir)
		if err != nil {
			fatalf(exitInvalid, "%v", err)
		}
		if len(docs) == 0 {
			fatalf(exitInvalid, "no *.xml documents in %s", *batchDir)
		}
	case *emitXSLT:
		out := os.Stdout
		if *output != "" {
			f, err := os.Create(*output)
			if err != nil {
				fatalf(exitInternal, "%v", err)
			}
			defer f.Close()
			out = f
		}
		sheet, err := stylesheet(sigma, *invert)
		if err != nil {
			fatalf(exitInternal, "generate stylesheet: %v", err)
		}
		fmt.Fprint(out, sheet.Serialize())
		return
	default:
		// A single document is a batch of one (the pool then runs one
		// worker), written to -o or stdout.
		if flag.NArg() != 1 {
			fatalf(exitUsage, "exactly one input document expected")
		}
		doc := pipeline.FileDoc(flag.Arg(0), *output)
		if *output == "" {
			// The pipeline closes the sink; nothing writes to stdout
			// after this document.
			doc.Sink = func() (io.WriteCloser, error) { return os.Stdout, nil }
		}
		docs = []core.BatchDoc{doc}
	}

	code := migrate(ctx, sigma, docs, runConfig{
		workers: *workers, invert: *invert, viaXSLT: *viaXSLT, lim: lim,
		slowThreshold: *slowDocs, verbose: *verbose, summary: *batchDir != "",
	})
	cleanup(code)
	os.Exit(code)
}

// runConfig carries the flag values that shape a migration run.
type runConfig struct {
	workers       int
	invert        bool
	viaXSLT       bool
	lim           core.Limits
	slowThreshold time.Duration
	verbose       bool
	summary       bool // print the batch throughput line
}

// migrate runs the documents through the pipeline, reports each
// failure on stderr and returns the worst per-document exit code.
func migrate(ctx context.Context, sigma *core.Embedding, docs []core.BatchDoc, cfg runConfig) int {
	opts := core.BatchOptions{Workers: cfg.workers, Limits: cfg.lim, SlowThreshold: cfg.slowThreshold}
	if cfg.invert {
		opts.Op = core.BatchInverse
	}
	if cfg.viaXSLT {
		sheet, err := stylesheet(sigma, cfg.invert)
		if err != nil {
			fatalf(exitInternal, "generate stylesheet: %v", err)
		}
		opts.Transform = sheet.RunCtx
	}

	results, stats, err := core.RunBatch(ctx, sigma, docs, opts)
	if err != nil {
		fatalf(exitInvalid, "%v", err)
	}
	code := 0
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "xse-map: %v\n", r.Err)
		code = worseExit(code, classify(r))
	}
	if cfg.summary {
		fmt.Fprintf(os.Stderr, "xse-map: %d docs (%d failed) in %s — %.1f docs/sec, %.2f MB/sec\n",
			stats.Docs, stats.Failed, stats.Elapsed.Round(time.Millisecond),
			stats.DocsPerSec(), stats.MBPerSec())
	}
	if cfg.verbose {
		obs.WriteSummary(os.Stderr, obs.Default())
	}
	return code
}

// classify maps a per-document failure to its exit code: input faults
// (unreadable, malformed or not mappable) are invalid input, a
// non-conforming output or a failed write is internal.
func classify(r core.BatchResult) int {
	if r.Canceled() {
		return exitTimeout
	}
	var de *core.BatchError
	if errors.As(r.Err, &de) {
		switch de.Stage {
		case core.BatchStageRead, core.BatchStageParse, core.BatchStageMap:
			return exitInvalid
		default:
			return exitInternal
		}
	}
	return exitInternal
}

// worseExit keeps the highest-severity code: timeout > internal >
// invalid > success.
func worseExit(a, b int) int {
	rank := func(c int) int {
		switch c {
		case exitTimeout:
			return 3
		case exitInternal:
			return 2
		case exitInvalid:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

func stylesheet(sigma *core.Embedding, invert bool) (*core.Stylesheet, error) {
	if invert {
		return core.InverseXSLT(sigma)
	}
	return core.ForwardXSLT(sigma)
}

func mustSchema(path, root string, lim core.Limits) *core.DTD {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf(exitInvalid, "read %s: %v", path, err)
	}
	d, err := core.ParseDTDLimits(string(data), root, lim)
	if err != nil {
		fatalf(exitInvalid, "%s: %v", path, err)
	}
	return d
}

func mustMapping(path string, src, tgt *core.DTD) *core.Embedding {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf(exitInvalid, "read %s: %v", path, err)
	}
	sigma, err := embedding.Unmarshal(string(data), src, tgt)
	if err != nil {
		fatalf(exitInvalid, "%s: %v", path, err)
	}
	if err := sigma.Validate(nil); err != nil {
		fatalf(exitInvalid, "%s: invalid embedding: %v", path, err)
	}
	return sigma
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xse-map: "+format+"\n", args...)
	cleanup(code)
	os.Exit(code)
}
