// Package core is the public API surface of the schema-embedding
// library: it re-exports the types and operations of the underlying
// packages — DTDs, XML documents, regular XPath, schema embeddings,
// instance mappings, query translation, XSLT generation, similarity
// matrices and embedding search — so applications program against one
// import.
//
// The typical flow, mirroring the paper:
//
//	src, _ := core.ParseDTD(srcDTDText, "")          // source schema S1
//	tgt, _ := core.ParseDTD(tgtDTDText, "")          // target schema S2
//	att := core.LexicalSim(src, tgt, 0.5)            // similarity matrix
//	res, _ := core.Find(src, tgt, att, core.FindOptions{})
//	σ := res.Embedding                               // schema embedding
//	out, _ := σ.Apply(doc)                           // σd: type-safe instance mapping
//	back, _ := σ.Invert(out.Tree)                    // σd⁻¹: invertibility
//	tr, _ := core.NewTranslator(σ)                   // query preservation
//	q, _ := core.ParseQuery(`class[cno/text() = "CS331"]/(type/regular/prereq/class)*`)
//	auto, _ := tr.Translate(q)                       // X_R query over S2, as an ANFA
//	answer := auto.Eval(out.Tree.Root)
package core

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/anfa"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/match"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xslt"
)

// Schema types.
type (
	// DTD is an XML DTD schema in the paper's normal form.
	DTD = dtd.DTD
	// Production is one element type definition.
	Production = dtd.Production
	// Def pairs a type name with its production for schema literals.
	Def = dtd.Def
)

// Document types.
type (
	// Tree is an ordered, node-labeled XML document with node ids.
	Tree = xmltree.Tree
	// Node is an element or text node.
	Node = xmltree.Node
	// NodeID identifies a node.
	NodeID = xmltree.NodeID
)

// Query types.
type (
	// Query is a regular XPath (X_R) expression.
	Query = xpath.Expr
	// XRPath is an X_R path η1/.../ηk.
	XRPath = xpath.Path
	// ANFA is the annotated automaton representation of a translated
	// query.
	ANFA = anfa.Automaton
	// Program is a compiled, reusable evaluation plan for a query; see
	// CompileQuery.
	Program = xpath.Program
	// ANFAProgram is a compiled, reusable evaluation plan for a
	// translated ANFA (anfa.Compile / ANFA.Program).
	ANFAProgram = anfa.Program
	// ANFAOptOptions configures the schema-aware ANFA optimizer.
	ANFAOptOptions = anfa.OptOptions
	// ANFAOptStats reports what one optimizer run did.
	ANFAOptStats = anfa.OptStats
	// TranslateOptions configures translation post-processing
	// (NoOptimize disables the default-on ANFA optimizer).
	TranslateOptions = translate.Options
)

// OptimizeANFA runs the schema-aware optimizer over an automaton in
// place; translation applies it by default (see TranslateOptions).
func OptimizeANFA(a *ANFA, opt ANFAOptOptions) ANFAOptStats { return anfa.Optimize(a, opt) }

// Embedding types.
type (
	// Embedding is a schema embedding σ = (λ, path).
	Embedding = embedding.Embedding
	// EdgeRef identifies a source schema edge.
	EdgeRef = embedding.EdgeRef
	// MapResult is the result of the instance mapping σd with its node
	// id mapping idM.
	MapResult = embedding.Result
	// SimMatrix is the similarity matrix att.
	SimMatrix = embedding.SimMatrix
	// Translator translates X_R queries across an embedding.
	Translator = translate.Translator
	// Stylesheet is an executable XSLT stylesheet.
	Stylesheet = xslt.Stylesheet
)

// Search types.
type (
	// FindOptions configures embedding search.
	FindOptions = search.Options
	// FindResult reports a search outcome.
	FindResult = search.Result
	// Heuristic selects the search strategy.
	Heuristic = search.Heuristic
)

// Search heuristics.
const (
	Random         = search.Random
	QualityOrdered = search.QualityOrdered
	IndepSet       = search.IndepSet
	Exact          = search.Exact
)

// Resource-limit types (see internal/guard).
type (
	// Limits bounds parser and generator resource use: recursion depth,
	// input bytes, declared types and document nodes. The zero value
	// selects defaults; negative fields disable a bound.
	Limits = guard.Limits
	// LimitError is the structured error returned when a Limits bound
	// is exceeded.
	LimitError = guard.LimitError
)

// DefaultLimits returns the default resource bounds.
func DefaultLimits() Limits { return guard.Default() }

// UnlimitedLimits returns bounds that disable every limit.
func UnlimitedLimits() Limits { return guard.Unlimited() }

// Typed cancellation errors from FindCtx. Each also matches the
// corresponding context error under errors.Is.
var (
	// ErrDeadline reports a search cut short by a context deadline.
	ErrDeadline = search.ErrDeadline
	// ErrCanceled reports a search cut short by context cancellation.
	ErrCanceled = search.ErrCanceled
)

// StrChild is the pseudo child naming str edges in EdgeRef.
const StrChild = embedding.StrChild

// Schema construction.

// NewDTD builds a schema from ordered definitions; see dtd.New.
func NewDTD(root string, defs ...Def) (*DTD, error) { return dtd.New(root, defs...) }

// D builds a definition for NewDTD.
func D(name string, p Production) Def { return dtd.D(name, p) }

// Production constructors.
var (
	Str    = dtd.Str
	Empty  = dtd.Empty
	Concat = dtd.Concat
	Disj   = dtd.Disj
	Star   = dtd.Star
)

// ParseDTD parses DTD element declarations (normalizing arbitrary
// content models); root "" selects the first declared element.
func ParseDTD(src, root string) (*DTD, error) { return dtd.Parse(src, root) }

// ParseDTDLimits is ParseDTD with explicit resource bounds.
func ParseDTDLimits(src, root string, lim Limits) (*DTD, error) {
	return dtd.ParseLimits(src, root, lim)
}

// Documents.

// ParseXML reads an XML document.
func ParseXML(r io.Reader) (*Tree, error) { return xmltree.Parse(r) }

// ParseXMLLimits is ParseXML with explicit resource bounds.
func ParseXMLLimits(r io.Reader, lim Limits) (*Tree, error) { return xmltree.ParseLimits(r, lim) }

// ParseXMLString reads an XML document from a string.
func ParseXMLString(s string) (*Tree, error) { return xmltree.ParseString(s) }

// TreesEqual is the paper's tree equality (value isomorphism).
func TreesEqual(a, b *Tree) bool { return xmltree.Equal(a, b) }

// GenerateDoc produces a random instance of a consistent schema.
func GenerateDoc(d *DTD, r *rand.Rand, opts xmltree.GenOptions) (*Tree, error) {
	return xmltree.Generate(d, r, opts)
}

// Queries.

// ParseQuery parses an X_R (or X) query.
func ParseQuery(src string) (Query, error) { return xpath.Parse(src) }

// ParseQueryLimits is ParseQuery with explicit resource bounds.
func ParseQueryLimits(src string, lim Limits) (Query, error) { return xpath.ParseLimits(src, lim) }

// EvalQuery evaluates a query at a context node.
func EvalQuery(q Query, ctx *Node) []*Node { return xpath.Eval(q, ctx) }

// CompileQuery compiles a query into a reusable Program: one
// compilation, many Run calls, safe for concurrent use, with pooled
// per-evaluation scratch. This is the data-plane form of EvalQuery.
func CompileQuery(q Query) *Program { return xpath.Compile(q) }

// QueryString renders a query.
func QueryString(q Query) string { return xpath.String(q) }

// Embeddings.

// NewEmbedding returns an empty embedding shell for manual
// construction; use MapType/SetPath then Validate.
func NewEmbedding(src, tgt *DTD) *Embedding { return embedding.New(src, tgt) }

// Ref builds an EdgeRef with occurrence 1.
func Ref(parent, child string) EdgeRef { return embedding.Ref(parent, child) }

// Similarity matrices.

// UniformSim returns the unrestricted att (all pairs score 1).
func UniformSim(src, tgt *DTD) *SimMatrix { return embedding.UniformSim(src, tgt) }

// LexicalSim scores tag-name pairs with edit-distance and trigram
// similarity, dropping scores below threshold.
func LexicalSim(src, tgt *DTD, threshold float64) *SimMatrix {
	return match.Lexical(src, tgt, threshold)
}

// Search.

// Find searches for a valid embedding; see search.Find.
func Find(src, tgt *DTD, att *SimMatrix, opts FindOptions) (*FindResult, error) {
	return search.Find(src, tgt, att, opts)
}

// FindCtx is Find with cancellation and deadline support: when ctx
// ends, the search stops at the next loop boundary and returns
// ErrDeadline or ErrCanceled alongside partial-progress statistics
// (and the best embedding found so far, if any).
func FindCtx(ctx context.Context, src, tgt *DTD, att *SimMatrix, opts FindOptions) (*FindResult, error) {
	return search.FindCtx(ctx, src, tgt, att, opts)
}

// Query translation.

// NewTranslator validates the embedding and returns a query
// translator implementing Tr of Theorem 4.2, with the schema-aware
// ANFA optimizer on (the default).
func NewTranslator(e *Embedding) (*Translator, error) { return translate.New(e) }

// NewTranslatorWithOptions is NewTranslator with explicit
// translation options.
func NewTranslatorWithOptions(e *Embedding, opts TranslateOptions) (*Translator, error) {
	return translate.NewWithOptions(e, opts)
}

// Translation caching.
type (
	// TranslationCache memoizes query translation per
	// (embedding, query) with LRU eviction and per-key single-flight;
	// safe for concurrent use.
	TranslationCache = translate.Cache
	// TranslationCacheStats is a snapshot of cache counters.
	TranslationCacheStats = translate.CacheStats
)

// NewTranslationCache returns a translation cache holding up to
// translate.DefaultCacheSize entries.
func NewTranslationCache() *TranslationCache { return translate.NewCache() }

// Batch migration (see internal/pipeline).
type (
	// BatchDoc is one named input (and optional output) of a batch run.
	BatchDoc = pipeline.Doc
	// BatchOptions configures a batch run: direction, worker count,
	// parse limits, an optional custom transform.
	BatchOptions = pipeline.Options
	// BatchResult is the per-document outcome, in input order.
	BatchResult = pipeline.DocResult
	// BatchStats aggregates a batch run with throughput accessors.
	BatchStats = pipeline.Stats
	// BatchError is a per-document failure tagged with its pipeline
	// stage.
	BatchError = pipeline.DocError
)

// Batch directions.
const (
	// BatchForward migrates source documents through σd.
	BatchForward = pipeline.Forward
	// BatchInverse recovers source documents through σd⁻¹.
	BatchInverse = pipeline.Inverse
)

// Batch pipeline stages, for error classification.
const (
	BatchStageRead     = pipeline.StageRead
	BatchStageParse    = pipeline.StageParse
	BatchStageMap      = pipeline.StageMap
	BatchStageValidate = pipeline.StageValidate
	BatchStageWrite    = pipeline.StageWrite
)

// Streaming migration (see embedding.StreamApply). The batch pipeline
// uses this engine by default; these re-exports serve single-document
// callers that want bounded memory without the batch machinery.
type (
	// StreamProgram is a compiled, reusable streaming form of σd or
	// σd⁻¹: one compile, many Run calls, safe for concurrent use.
	StreamProgram = embedding.StreamProgram
	// StreamOptions configures one streaming run (limits, metrics).
	StreamOptions = embedding.StreamOptions
	// StreamStats reports one streaming run's token/byte/buffering
	// accounting.
	StreamStats = embedding.StreamStats
	// StreamError tags a streaming failure with its stage
	// ("parse", "map" or "write").
	StreamError = embedding.StreamError
)

// CompileStream compiles the embedding's instance mapping σd into a
// streaming program: documents transform token-by-token in O(depth)
// memory, buffering subtrees only for productions whose target fragment
// reorders source children.
func CompileStream(e *Embedding) (*StreamProgram, error) { return e.CompileStream() }

// CompileStreamInverse compiles the inverse mapping σd⁻¹ into a
// streaming program: target documents map back to their source
// documents token-by-token, byte-identical to Invert + String.
func CompileStreamInverse(e *Embedding) (*StreamProgram, error) { return e.CompileStreamInverse() }

// StreamMigrate applies σd to one document as a stream: XML in from r,
// migrated XML out to w, byte-identical to Apply + String.
func StreamMigrate(ctx context.Context, e *Embedding, r io.Reader, w io.Writer) (StreamStats, error) {
	return embedding.StreamApply(ctx, e, r, w)
}

// RunBatch migrates documents through the embedding with a bounded
// worker pool; per-document failures are isolated in the results.
func RunBatch(ctx context.Context, e *Embedding, docs []BatchDoc, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	return pipeline.Run(ctx, e, docs, opts)
}

// BatchDirDocs lists *.xml files of dir (name order) as batch inputs,
// writing outputs of the same base name under outDir ("" discards).
func BatchDirDocs(dir, outDir string) ([]BatchDoc, error) { return pipeline.DirDocs(dir, outDir) }

// CancelError is the typed error surfaced by context-aware operations
// (ApplyCtx, InvertCtx, TranslateCtx, RunCtx, RunBatch) when their
// context ends; it matches the context's own error under errors.Is.
type CancelError = guard.CancelError

// Compose builds σ2 ∘ σ1, the direct embedding along a two-hop mapping
// chain (see embedding.Compose).
func Compose(s1, s2 *Embedding) (*Embedding, error) { return embedding.Compose(s1, s2) }

// XSLT generation.

// ForwardXSLT compiles σd to an executable stylesheet.
func ForwardXSLT(e *Embedding) (*Stylesheet, error) { return xslt.ForwardStylesheet(e) }

// InverseXSLT compiles σd⁻¹ to an executable stylesheet.
func InverseXSLT(e *Embedding) (*Stylesheet, error) { return xslt.InverseStylesheet(e) }
