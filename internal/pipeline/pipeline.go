// Package pipeline drives batch document migration: it applies an
// embedding's instance mapping σd (or its inverse σd⁻¹) to a stream of
// documents with a bounded worker pool, per-document error isolation,
// and aggregate throughput accounting. It is the one data plane behind
// xse-map, single-document and batch alike.
//
// Each run takes σd or σd⁻¹ as an embedding.StreamProgram, which the
// embedding compiles once and keeps for every later run, and every
// document flows token by token from reader to sink in O(depth)
// memory; no tree is built and no validation pass runs, because the
// compiled program's output conforms by construction
// (pinned by the oracle's stream differentials against Apply and
// Invert). A caller-supplied Transform (an XSLT engine run) instead
// takes each document through parse → transform → validate → encode,
// validating against the schema of the run's direction. Cancellation
// surfaces as *guard.CancelError and abandons in-flight documents
// promptly. One malformed document fails alone; the batch completes.
//
// Results are reported in input order regardless of worker count, so a
// run with -j 8 is observationally identical to -j 1 (same outputs,
// same per-document errors) apart from wall-clock time.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/xmltree"
)

// Op selects the transformation direction.
type Op int

const (
	// Forward applies σd: source documents become target documents.
	Forward Op = iota
	// Inverse applies σd⁻¹: target documents are mapped back to the
	// source documents they came from.
	Inverse
)

// Stage identifies where in the per-document pipeline an error arose;
// callers use it to classify failures (malformed input vs internal).
type Stage int

const (
	StageRead Stage = iota
	StageParse
	StageMap
	StageValidate
	StageWrite
)

func (s Stage) String() string {
	switch s {
	case StageRead:
		return "read"
	case StageParse:
		return "parse"
	case StageMap:
		return "map"
	case StageValidate:
		return "validate"
	case StageWrite:
		return "write"
	}
	return "unknown"
}

// DocError wraps a per-document failure with its pipeline stage.
type DocError struct {
	Name  string
	Stage Stage
	Err   error
}

func (e *DocError) Error() string {
	return fmt.Sprintf("%s: %s: %v", e.Name, e.Stage, e.Err)
}

func (e *DocError) Unwrap() error { return e.Err }

// Doc is one unit of batch work: a named input and an optional output
// destination. A nil Sink discards the serialized result (the
// transformation and validation still run). Abort, when set, is called
// after a failure that already opened the Sink, so a partially written
// output can be removed: the streaming path writes as it transforms,
// and a mid-document fault must not leave a torn file behind.
type Doc struct {
	Name  string
	Open  func() (io.ReadCloser, error)
	Sink  func() (io.WriteCloser, error)
	Abort func()
}

// FileDoc builds a Doc reading from path and writing to outPath
// (discarding output when outPath is ""); on failure the partial
// output file is removed.
func FileDoc(path, outPath string) Doc {
	d := Doc{
		Name: path,
		Open: func() (io.ReadCloser, error) { return os.Open(path) },
	}
	if outPath != "" {
		d.Sink = func() (io.WriteCloser, error) { return os.Create(outPath) }
		d.Abort = func() { os.Remove(outPath) }
	}
	return d
}

// DirDocs enumerates *.xml files of dir in name order, mapping each to
// an output file of the same base name under outDir (or discarding
// output when outDir is ""). It is the work-list builder behind
// xse-map -batch.
func DirDocs(dir, outDir string) ([]Doc, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".xml" {
			continue
		}
		paths = append(paths, e.Name())
	}
	sort.Strings(paths)
	docs := make([]Doc, 0, len(paths))
	for _, name := range paths {
		out := ""
		if outDir != "" {
			out = filepath.Join(outDir, name)
		}
		docs = append(docs, FileDoc(filepath.Join(dir, name), out))
	}
	return docs, nil
}

// Options configure a batch run.
type Options struct {
	// Op selects σd (Forward) or σd⁻¹ (Inverse); with a Transform it
	// selects the schema the output is validated against (the target
	// DTD forward, the source DTD inverse).
	Op Op
	// Workers bounds pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Limits apply to each document parse (zero fields take the guard
	// defaults).
	Limits guard.Limits
	// Transform, when set, replaces the compiled mapping with a custom
	// tree-to-tree function (e.g. an XSLT engine run); its output is
	// validated before it is written. It must be safe for concurrent
	// use.
	Transform func(ctx context.Context, doc *xmltree.Tree) (*xmltree.Tree, error)
	// SlowThreshold, when positive, logs every document whose
	// end-to-end pipeline time exceeds it to SlowLog.
	SlowThreshold time.Duration
	// SlowLog receives slow-document lines; os.Stderr when nil.
	SlowLog io.Writer
}

// DocResult is the outcome for one document, in input order.
type DocResult struct {
	Name     string
	Err      error // nil on success; *DocError otherwise
	InBytes  int64
	OutBytes int64
	Elapsed  time.Duration
}

// Canceled reports whether this document failed because the run's
// context was canceled (as opposed to a fault of the document itself).
func (r *DocResult) Canceled() bool {
	var ce *guard.CancelError
	return errors.As(r.Err, &ce)
}

// Stats aggregates one Run.
type Stats struct {
	Docs     int // documents attempted
	Failed   int // documents with a non-nil Err
	InBytes  int64
	OutBytes int64
	Elapsed  time.Duration
}

// DocsPerSec is successful-document throughput over the run's wall
// clock.
func (s Stats) DocsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Docs-s.Failed) / s.Elapsed.Seconds()
}

// MBPerSec is input-byte throughput over the run's wall clock
// (1 MB = 1e6 bytes).
func (s Stats) MBPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.InBytes) / 1e6 / s.Elapsed.Seconds()
}

// Run migrates the documents through the embedding with a bounded
// worker pool. The returned slice has one entry per input document in
// input order. Run itself returns an error only for setup failures
// (an invalid embedding); per-document failures — including
// cancellation — are reported in the results. Once ctx is canceled,
// in-flight documents unwind with a *guard.CancelError and queued
// documents are not started.
func Run(ctx context.Context, emb *embedding.Embedding, docs []Doc, opts Options) ([]DocResult, Stats, error) {
	if emb == nil {
		return nil, Stats{}, fmt.Errorf("pipeline: nil embedding")
	}
	// Validate once up front: workers then share the resolved embedding
	// read-only, and a broken mapping fails the run, not every document.
	if err := emb.Validate(nil); err != nil {
		return nil, Stats{}, fmt.Errorf("pipeline: invalid embedding: %w", err)
	}

	env := &runEnv{
		transform: opts.Transform,
		check:     emb.Target,
		lim:       opts.Limits,
		slow:      newSlowLogger(opts.SlowThreshold, opts.SlowLog),
	}
	if opts.Op == Inverse {
		env.check = emb.Source
	}
	// Without a Transform, every document runs through the instance
	// mapping's (σd or σd⁻¹) streaming program, compiled once per
	// embedding and reused across runs.
	if opts.Transform == nil {
		compile := emb.CompileStream
		if opts.Op == Inverse {
			compile = emb.CompileStreamInverse
		}
		p, err := compile()
		if err != nil {
			return nil, Stats{}, fmt.Errorf("pipeline: compile streaming program: %w", err)
		}
		env.prog = p
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) && len(docs) > 0 {
		workers = len(docs)
	}

	start := time.Now()
	results := make([]DocResult, len(docs))
	jobs := make(chan int)
	// Add/Add(-1) rather than Set, so concurrent Runs compose: each
	// run only accounts for its own documents.
	mQueueDepth.Add(int64(len(docs)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Begun from Run's span-less context (every caller's), each
			// worker stage opens its own trace lane.
			wctx, lane := stWorker.Begin(ctx)
			lane.Span().AttrInt("worker", int64(w))
			defer lane.End()
			for i := range jobs {
				results[i] = runOne(wctx, docs[i], env)
				mQueueDepth.Add(-1)
			}
		}()
	}
	var undispatched int64
dispatch:
	for i := range docs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Mark everything not yet handed out as canceled without
			// starting it.
			for j := i; j < len(docs); j++ {
				select {
				case jobs <- j:
				default:
					results[j] = DocResult{
						Name: docs[j].Name,
						Err:  &DocError{Name: docs[j].Name, Stage: StageMap, Err: guard.CheckCtx(ctx, "pipeline: batch")},
					}
					undispatched++
				}
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	// Workers decrement per processed doc; docs canceled before
	// dispatch are drained here so the gauge returns to its pre-run
	// level even on early abort.
	mQueueDepth.Add(-undispatched)

	stats := Stats{Docs: len(docs), Elapsed: time.Since(start)}
	for i := range results {
		if results[i].Err != nil {
			stats.Failed++
		}
		stats.InBytes += results[i].InBytes
		stats.OutBytes += results[i].OutBytes
	}
	return results, stats, nil
}

// countingWriter tallies bytes flowing to a sink.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// runEnv bundles one Run's per-document machinery: the compiled
// program or the custom transform and the schema its output must
// conform to, parse limits and the slow-document logger.
type runEnv struct {
	transform func(context.Context, *xmltree.Tree) (*xmltree.Tree, error)
	check     *dtd.DTD
	prog      *embedding.StreamProgram // non-nil selects the streaming path
	lim       guard.Limits
	slow      *slowLogger
}

// runOne executes the per-document pipeline: the compiled program's
// stream (streamOne), or for a custom Transform
// read+parse → transform → validate → serialize.
// Each document is one pipeline.doc stage on its worker's lane, with a
// pipeline.stream stage or parse/map/validate/encode stages inside.
func runOne(ctx context.Context, doc Doc, env *runEnv) (res DocResult) {
	res.Name = doc.Name
	ctx, dt := stDoc.Begin(ctx)
	dt.Span().Attr("doc", doc.Name)
	defer func() {
		mDocs.Inc()
		if res.Err != nil {
			mDocsFailed.Inc()
			var de *DocError
			if errors.As(res.Err, &de) {
				mErrByStage[de.Stage].Inc()
				dt.Span().Attr("error", de.Stage.String())
			}
		} else {
			mDocsOK.Inc()
		}
		mReadBytes.Add(uint64(res.InBytes))
		mWritten.Add(uint64(res.OutBytes))
		res.Elapsed = dt.End()
		env.slow.observe(&res)
	}()
	fail := func(stage Stage, err error) DocResult {
		res.Err = &DocError{Name: doc.Name, Stage: stage, Err: err}
		return res
	}

	if err := guard.CheckCtx(ctx, "pipeline: batch"); err != nil {
		return fail(StageMap, err)
	}
	if env.prog != nil {
		return streamOne(ctx, doc, env, &res, fail)
	}
	_, tm := stParse.Begin(ctx)
	rc, err := doc.Open()
	if err != nil {
		tm.End()
		return fail(StageRead, err)
	}
	in := &countingReader{r: rc}
	tree, perr := xmltree.ParseLimits(in, env.lim)
	rc.Close()
	res.InBytes = in.n
	tm.End()
	if perr != nil {
		return fail(StageParse, perr)
	}

	mctx, tm := stMap.Begin(ctx)
	out, err := env.transform(mctx, tree)
	tm.End()
	if err != nil {
		return fail(StageMap, err)
	}
	_, tm = stValidate.Begin(ctx)
	err = out.Validate(env.check)
	tm.End()
	if err != nil {
		return fail(StageValidate, err)
	}

	if doc.Sink == nil {
		return res
	}
	_, tm = stEncode.Begin(ctx)
	wc, err := doc.Sink()
	if err != nil {
		tm.End()
		return fail(StageWrite, err)
	}
	cw := &countingWriter{w: wc}
	werr := out.Write(cw)
	if cerr := wc.Close(); werr == nil {
		werr = cerr
	}
	res.OutBytes = cw.n
	tm.End()
	if werr != nil {
		if doc.Abort != nil {
			doc.Abort()
			res.OutBytes = 0
		}
		return fail(StageWrite, werr)
	}
	return res
}

// streamOne is runOne's data plane when the run compiled a streaming
// program: the document flows token-by-token from reader to sink with
// no intermediate trees. StreamError's stage tag is translated into
// the pipeline's Stage taxonomy; a document that fails mid-stream
// calls the Doc's Abort, so a partial output file is removed.
func streamOne(ctx context.Context, doc Doc, env *runEnv, res *DocResult, fail func(Stage, error) DocResult) DocResult {
	ctx, tm := stStream.Begin(ctx)
	defer tm.End()
	rc, err := doc.Open()
	if err != nil {
		return fail(StageRead, err)
	}
	defer rc.Close()
	var w io.Writer = io.Discard
	var wc io.WriteCloser
	if doc.Sink != nil {
		wc, err = doc.Sink()
		if err != nil {
			return fail(StageWrite, err)
		}
		w = wc
	}
	st, serr := env.prog.Run(ctx, rc, w, embedding.StreamOptions{Limits: env.lim})
	res.InBytes = st.InBytes
	if wc != nil {
		res.OutBytes = st.OutBytes
		if cerr := wc.Close(); serr == nil && cerr != nil {
			serr = &embedding.StreamError{Stage: "write", Err: cerr}
		}
		if serr != nil && doc.Abort != nil {
			doc.Abort()
			res.OutBytes = 0
		}
	}
	if serr != nil {
		var se *embedding.StreamError
		if errors.As(serr, &se) {
			return fail(streamStage(se.Stage), se.Err)
		}
		return fail(StageMap, serr)
	}
	return *res
}

// streamStage maps a StreamError stage tag onto the pipeline taxonomy.
func streamStage(s string) Stage {
	switch s {
	case "parse":
		return StageParse
	case "write":
		return StageWrite
	}
	return StageMap
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
