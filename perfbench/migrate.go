package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// migrateDoc is one generated source document and, once the gate has
// run, its σd image (the inverse direction's input).
type migrateDoc struct {
	schema  int // index into migrateWorkload.schemas
	class   string
	src     []byte
	forward []byte
	// inverse is the inverse output the gate saw (the source document as
	// the pipeline serializes it).
	inverse []byte
}

// migrateWorkload migrates documents of the four corpus pairs and of
// the auction embedding through pipeline.Run, forward on the default
// stream path and inverse on the tree path over the forward output.
type migrateWorkload struct {
	seed    int64
	schemas []string // corpus pair names, then "auction"
	docs    []*migrateDoc
	// embs are fixed at set-up, index-aligned with schemas.
	embs []*embedding.Embedding

	mu    sync.Mutex
	stats migrateStats
}

// migrateStats accumulates traced ops' pipeline results.
type migrateStats struct {
	forwardOps      int
	forwardInBytes  int64
	forwardPipeline time.Duration
}

// migrateSizes are the document size classes (approximate node
// counts), steps of eight from 10³ towards 10⁵ nodes. No record of
// real document sizes exists to weigh them by, so each schema has one
// document of each class.
var migrateSizes = []struct {
	class string
	nodes int
}{
	{"1k", 1000},
	{"8k", 8000},
	{"64k", 64000},
}

func newMigrateWorkload(seed int64, size sizing) bench {
	w := &migrateWorkload{seed: seed}
	var sources []*dtd.DTD
	for _, p := range corpus.MustPairs() {
		w.schemas = append(w.schemas, p.Name)
		sources = append(sources, p.Source)
	}
	w.schemas = append(w.schemas, "auction")
	sources = append(sources, workload.AuctionDTD())
	r := rand.New(rand.NewSource(seed))
	for i, src := range sources {
		for _, sz := range migrateSizes {
			nodes := sz.nodes
			if size == tinySize {
				nodes /= 50
			}
			doc := sizedDoc(src, r, nodes, 10)
			w.docs = append(w.docs, &migrateDoc{schema: i, class: sz.class, src: []byte(doc.String())})
		}
	}
	return w
}

// sizedDoc generates a document of d whose size is within a 1/within
// share of nodes (within 10 is 10%). corpus.GenerateSized only lands
// within the schema's branching granularity, so it redraws (at most
// 200 times) until the size is close: a document's cost then depends
// on the seed through its content, not its size.
func sizedDoc(d *dtd.DTD, r *rand.Rand, nodes, within int) *xmltree.Tree {
	var best *xmltree.Tree
	for try := 0; try < 200; try++ {
		doc, err := corpus.GenerateSized(d, r.Int63(), nodes)
		if err != nil {
			continue
		}
		if best == nil || abs(doc.Size()-nodes) < abs(best.Size()-nodes) {
			best = doc
		}
		if within*abs(best.Size()-nodes) <= nodes {
			break
		}
	}
	if best == nil {
		panic(fmt.Sprintf("cannot generate a %d-node document of %s", nodes, d.Root))
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// setup parses the corpus schemas, fixes each pair's embedding with a
// QualityOrdered search over lexical att, builds the auction embedding
// and compiles every embedding's stream program. pipeline.Run compiles
// its own program per call; compiling here makes a broken embedding
// fail before timing and puts the compile cost in setup_s.
func (w *migrateWorkload) setup(o *opCtx) error {
	embs, err := corpusEmbeddings(o)
	if err != nil {
		return err
	}
	embs = append(embs, workload.AuctionEmbedding())
	w.embs = embs
	for i, e := range embs {
		o.span("embedding.compile_stream", func() { _, err = e.CompileStream() })
		if err != nil {
			return fmt.Errorf("%s: compile stream program: %w", w.schemas[i], err)
		}
	}
	return nil
}

// corpusEmbeddings parses the corpus and fixes one embedding per pair,
// found by QualityOrdered over lexical att.
func corpusEmbeddings(o *opCtx) ([]*embedding.Embedding, error) {
	var pairs []corpus.Pair
	var err error
	o.span("corpus.pairs", func() { pairs, err = corpus.Pairs() })
	if err != nil {
		return nil, err
	}
	var embs []*embedding.Embedding
	for _, p := range pairs {
		var att *embedding.SimMatrix
		o.span("match.att", func() { att = match.Lexical(p.Source, p.Target, 0) })
		var res *search.Result
		o.span("search.find", func() {
			res, err = search.FindCtx(context.Background(), p.Source, p.Target, att,
				search.Options{Heuristic: search.QualityOrdered, Seed: 1})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: search: %w", p.Name, err)
		}
		if res.Embedding == nil {
			return nil, fmt.Errorf("%s: no embedding found", p.Name)
		}
		embs = append(embs, res.Embedding)
	}
	return embs, nil
}

// migrate runs one document through pipeline.Run. The returned latency
// runs from the pipeline's call of the document's Open to the close of
// its Sink.
func migrate(o *opCtx, emb *embedding.Embedding, op pipeline.Op, in []byte) ([]byte, pipeline.Stats, time.Duration, error) {
	var out bytes.Buffer
	var opened, closed time.Time
	doc := pipeline.Doc{
		Name: "doc",
		Open: func() (io.ReadCloser, error) {
			opened = time.Now()
			return io.NopCloser(bytes.NewReader(in)), nil
		},
		Sink: func() (io.WriteCloser, error) { return &sink{buf: &out, closed: &closed}, nil },
	}
	var res []pipeline.DocResult
	var st pipeline.Stats
	var err error
	o.span("pipeline.run", func() {
		res, st, err = pipeline.Run(context.Background(), emb, []pipeline.Doc{doc}, pipeline.Options{Op: op, Workers: 2})
	})
	if err != nil {
		return nil, st, 0, err
	}
	if res[0].Err != nil {
		return nil, st, 0, failed("pipeline rejected the document: %v", res[0].Err)
	}
	return out.Bytes(), st, closed.Sub(opened), nil
}

// sink is a Doc output that notes when it is closed.
type sink struct {
	buf    *bytes.Buffer
	closed *time.Time
}

func (s *sink) Write(p []byte) (int, error) { return s.buf.Write(p) }

func (s *sink) Close() error {
	*s.closed = time.Now()
	return nil
}

// gate migrates every document once, untimed: the forward output must
// validate against the target schema, equal the tree path's output
// byte for byte, and map back through the inverse to a tree equal to
// the source.
func (w *migrateWorkload) gate() error {
	for i, d := range w.docs {
		name := fmt.Sprintf("migrate %s/%s #%d", w.schemas[d.schema], d.class, i)
		emb := w.embs[d.schema]
		fwd, _, _, err := migrate(&opCtx{}, emb, pipeline.Forward, d.src)
		if err != nil {
			return violated(name, "forward: %v", err)
		}
		d.forward = fwd
		out, err := xmltree.Parse(bytes.NewReader(fwd))
		if err != nil {
			return violated(name, "forward output does not parse: %v", err)
		}
		if err := out.Validate(emb.Target); err != nil {
			return violated(name, "forward output fails target validation: %v", err)
		}
		srcTree, err := xmltree.Parse(bytes.NewReader(d.src))
		if err != nil {
			return fmt.Errorf("%s: source document: %w", name, err)
		}
		tree, err := emb.Apply(srcTree)
		if err != nil {
			return violated(name, "tree path: %v", err)
		}
		if tree.Tree.String() != string(fwd) {
			return violated(name, "stream output differs from the tree path's")
		}
		back, _, _, err := migrate(&opCtx{}, emb, pipeline.Inverse, fwd)
		if err != nil {
			return violated(name, "inverse: %v", err)
		}
		d.inverse = back
		inv, err := xmltree.Parse(bytes.NewReader(back))
		if err != nil {
			return violated(name, "inverse output does not parse: %v", err)
		}
		if !xmltree.Equal(inv, srcTree) {
			return violated(name, "σd⁻¹(σd(T)) ≠ T: %s", firstLine(xmltree.Diff(inv, srcTree)))
		}
	}
	return nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// pass migrates every document forward and every forward output back,
// in a seeded order.
func (w *migrateWorkload) pass(i int) []op {
	var ops []op
	for _, d := range w.docs {
		emb := w.embs[d.schema]
		ops = append(ops,
			op{name: "forward-" + d.class, run: func(o *opCtx) error {
				out, st, lat, err := migrate(o, emb, pipeline.Forward, d.src)
				if err != nil {
					return err
				}
				if !bytes.Equal(out, d.forward) {
					return violated("migrate forward-"+d.class, "output differs from the gate's")
				}
				o.lat = lat
				if o.tr != nil {
					w.record(st, lat)
				}
				return nil
			}},
			op{name: "inverse-" + d.class, run: func(o *opCtx) error {
				out, _, lat, err := migrate(o, emb, pipeline.Inverse, d.forward)
				if err != nil {
					return err
				}
				if !bytes.Equal(out, d.inverse) {
					return violated("migrate inverse-"+d.class, "output differs from the gate's")
				}
				o.lat = lat
				return nil
			}})
	}
	r := rand.New(rand.NewSource(w.seed*7919 + int64(i)))
	r.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

func (w *migrateWorkload) record(st pipeline.Stats, lat time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.forwardOps++
	w.stats.forwardInBytes += st.InBytes
	w.stats.forwardPipeline += lat
}

func (w *migrateWorkload) check() error { return nil }

// layers reads the pipeline's stage histograms and the stream
// engine's counters, both registered by the program itself.
func (w *migrateWorkload) layers(m map[string]float64, agg *traceAgg, ops int) error {
	docs := agg.delta("xse_pipeline_doc_seconds:count")
	if docs > 0 {
		m["pipeline.doc_ms"] = 1000 * agg.delta("xse_pipeline_doc_seconds:sum") / docs
		m["pipeline.parse_ms"] = 1000 * agg.delta("xse_pipeline_parse_seconds:sum") / docs
		m["pipeline.map_ms"] = 1000 * agg.delta("xse_pipeline_map_seconds:sum") / docs
		m["pipeline.encode_ms"] = 1000 * agg.delta("xse_pipeline_encode_seconds:sum") / docs
		m["pipeline.validate_ms"] = 1000 * agg.delta("xse_pipeline_validate_seconds:sum") / docs
	}
	streamed := agg.delta("xse_stream_docs_total")
	if streamed > 0 {
		m["embedding.stream_tokens"] = agg.delta("xse_stream_tokens_total") / streamed
		m["embedding.stream_fallbacks"] = agg.delta("xse_stream_fallbacks_total") / streamed
		m["embedding.buffered_peak_bytes"] = agg.delta("xse_stream_buffered_peak_bytes:sum") / streamed
	}
	if s := w.stats; s.forwardPipeline > 0 {
		m["embedding.stream_mb_s"] = float64(s.forwardInBytes) / 1e6 / s.forwardPipeline.Seconds()
	}
	m["embedding.compile_stream_ms"] = agg.setupMeanMS("embedding.compile_stream")
	return nil
}
