package embedding

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/dtd"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Streaming instance mapping: σd applied during tokenization instead
// of over a materialized tree. The paper's InstMap (§4.2) is
// structurally top-down — each source node is replaced by a production
// fragment whose shape depends only on the source type's production —
// which puts it in the top-down transducer class of Martens & Neven
// and makes it streamable with O(depth) state.
//
// CompileStream exploits that: for every source type it runs the exact
// fragment construction the tree mapper uses (insertSteps + fill, see
// instmap.go) once, over placeholder children, and flattens the
// resulting static skeleton into a program of emit ops with holes
// where source content is spliced in. Because the source document
// conforms to the source DTD, the children of a concatenation node
// arrive in exactly production order, so in the common case the holes
// appear in arrival order and the engine never buffers: it interleaves
// static output with recursive descent, holding only the tokenizer's
// and emitter's O(depth) stacks. Only a production whose embedded
// paths genuinely reorder siblings in the target falls back to
// buffering its children as token slices, charged against
// guard.Limits and reported in StreamStats / xse_stream_* metrics.
//
// Equivalence with Apply is by construction — the skeletons come from
// the same mapper code — and is enforced continuously by oracle
// property #9 (stream-differential) and the corpus cross-check. The
// σd XSLT stylesheet (internal/xslt) is rendered from these same
// fragments through the read-only Fragments view, so InstMap, the
// stream engine and XSLT share one fragment construction.

// OpCode discriminates compiled stream ops.
type OpCode uint8

const (
	// OpStart emits a start tag (str = label).
	OpStart OpCode = iota
	// OpEnd closes the innermost emitted element.
	OpEnd
	// OpText emits a static text node (str = value; default fills).
	OpText
	// OpTextHole emits the current source node's PCDATA (str sources).
	OpTextHole
	// OpChild recursively maps the arg-th source child here.
	OpChild
)

// streamOp is one compiled instruction.
type streamOp struct {
	code OpCode
	str  string
	arg  int
}

// compiledProd is the per-source-type program: the static fragment
// skeleton with holes, in one of three shapes depending on the source
// production kind.
type compiledProd struct {
	kind     dtd.Kind
	children []string // expected child labels (concat: arrival order; star: the one child; disj: disjuncts)

	// frag serves str, ε and concatenation sources.
	frag []streamOp
	// reorder marks a concatenation whose holes are not in arrival
	// order; the engine buffers the children before executing frag.
	reorder bool
	// variants maps each disjunct label to its program (one hole).
	variants map[string][]streamOp
	// prefix/segment/suffix serve star sources: prefix, then one
	// segment per source child, then suffix.
	prefix, segment, suffix []streamOp
}

// Fragment is a read-only view of one compiled σd fragment: the op
// slice the engine executes, not a copy.
type Fragment struct{ ops []streamOp }

// Len returns the number of ops in the fragment.
func (f Fragment) Len() int { return len(f.ops) }

// Op returns the i-th op: its code, the label (OpStart) or text
// (OpText) it emits, and the source child index it maps (OpChild).
func (f Fragment) Op(i int) (code OpCode, str string, arg int) {
	op := &f.ops[i]
	return op.code, op.str, op.arg
}

// Fragments is a read-only view of the σd fragments compiled for one
// source type, shaped by the kind of the type's production.
type Fragments struct{ cp *compiledProd }

// Fragments returns the compiled σd fragments of source type a; ok is
// false for a type the program does not define and for every type of a
// σd⁻¹ program.
func (p *StreamProgram) Fragments(a string) (v Fragments, ok bool) {
	cp := p.prods[a]
	return Fragments{cp}, cp != nil
}

// Frag is the fragment of a str, ε or concatenation type.
func (v Fragments) Frag() Fragment { return Fragment{v.cp.frag} }

// Variant is a disjunction type's fragment for disjunct d; its one
// hole maps d.
func (v Fragments) Variant(d string) Fragment { return Fragment{v.cp.variants[d]} }

// Star returns a star type's prefix, per-child segment and suffix; the
// segment runs once per source child between the other two.
func (v Fragments) Star() (prefix, segment, suffix Fragment) {
	return Fragment{v.cp.prefix}, Fragment{v.cp.segment}, Fragment{v.cp.suffix}
}

// StreamProgram is a compiled embedding in one direction: σd (one
// fragment program per source type, from CompileStream) or σd⁻¹ (one
// path trie per source type, from CompileStreamInverse). It is
// immutable once compiled and safe for concurrent Run calls.
type StreamProgram struct {
	// root is the label the input document's root must carry.
	root  string
	prods map[string]*compiledProd
	// inv is the source root's inverse program; nil for σd.
	inv *invProd
}

// StreamOptions configure one Run.
type StreamOptions struct {
	// Limits bound the tokenizer (depth, nodes, input bytes) and the
	// buffered-fallback charge; zero fields take the guard defaults.
	Limits guard.Limits
}

// StreamStats reports one streaming migration.
type StreamStats struct {
	Tokens   int64 // source tokens consumed
	Nodes    int   // source nodes (elements + text) seen
	MaxDepth int   // deepest source nesting
	InBytes  int64 // raw input bytes
	OutBytes int64 // serialized output bytes
	// Fallbacks counts buffered-subtree fallbacks taken (reordering
	// productions encountered at instance level).
	Fallbacks int
	// PeakBufferedBytes is the high-water mark of buffered source
	// subtree bytes; 0 for a fully streamed document, and independent
	// of document size whenever no production reorders.
	PeakBufferedBytes int
}

// StreamError tags an engine failure with the pipeline stage it maps
// to: "parse" (tokenizer), "map" (conformance or program) or "write"
// (emitter). Unwrap exposes the underlying error, so guard.LimitError
// and guard.CancelError classification is unaffected.
type StreamError struct {
	Stage string
	Err   error
}

func (e *StreamError) Error() string { return fmt.Sprintf("stream %s: %v", e.Stage, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *StreamError) Unwrap() error { return e.Err }

// CompileStream validates the embedding and compiles its per-production
// actions into a StreamProgram. The fragment skeletons are built by the
// same mapper machinery Apply uses (copy construction, longest-prefix
// slot merging, minimum-default fill), so the compiled output agrees
// with the tree path byte for byte. The program is compiled once per
// embedding and shared by every later call until SetPath or MapType
// changes the embedding.
func (e *Embedding) CompileStream() (*StreamProgram, error) {
	return e.memoProgram(&e.fwd, e.compileStream)
}

// memoProgram returns the program memoized in slot, compiling it on
// first use. Concurrent first calls may each compile; the first stored
// program wins, so every caller gets the same pointer. A failed
// compile stores nothing.
func (e *Embedding) memoProgram(slot *atomic.Pointer[StreamProgram], compile func() (*StreamProgram, error)) (*StreamProgram, error) {
	if p := slot.Load(); p != nil {
		return p, nil
	}
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	p, err := compile()
	if err != nil {
		return nil, err
	}
	if slot.CompareAndSwap(nil, p) {
		return p, nil
	}
	return slot.Load(), nil
}

func (e *Embedding) compileStream() (*StreamProgram, error) {
	md, err := MinDef(e.Target)
	if err != nil {
		return nil, err
	}
	p := &StreamProgram{root: e.Source.Root, prods: make(map[string]*compiledProd, len(e.Source.Types))}
	for _, a := range e.Source.Types {
		cp, err := e.compileProd(a, md)
		if err != nil {
			return nil, fmt.Errorf("embedding: compile stream program for %q: %w", a, err)
		}
		p.prods[a] = cp
	}
	return p, nil
}

// fragCompiler builds one production fragment over placeholders and
// flattens it to ops.
type fragCompiler struct {
	m        *mapper
	holes    map[*xmltree.Node]int
	textHole *xmltree.Node
	iterAt   *xmltree.Node
	split    int
	ops      []streamOp
}

func (e *Embedding) newFragCompiler(md MinDefs) *fragCompiler {
	return &fragCompiler{
		m: &mapper{
			e:   e,
			ctx: context.Background(),
			t:   &xmltree.Tree{},
			md:  md,
			res: &Result{
				IDM:     make(map[xmltree.NodeID]xmltree.NodeID),
				Fwd:     make(map[xmltree.NodeID]xmltree.NodeID),
				Default: make(map[xmltree.NodeID]bool),
			},
			meta: make(map[*xmltree.Node]nodeMeta),
		},
		holes: make(map[*xmltree.Node]int),
	}
}

// placeholder attaches a completed hole node for the idx-th source
// child at the final slot of steps, walking the earlier steps through
// the shared skeleton exactly as insertChild does.
func (fc *fragCompiler) placeholder(base *xmltree.Node, steps []resolvedStep, idx int) error {
	end, err := fc.m.insertSteps(base, steps[:len(steps)-1])
	if err != nil {
		return err
	}
	last := steps[len(steps)-1]
	ph := fc.m.t.NewElement(last.label)
	fc.m.meta[ph] = nodeMeta{slot: last.slot(), complete: true}
	xmltree.Append(end, ph)
	fc.holes[ph] = idx
	return nil
}

// walk flattens the filled fragment into ops.
func (fc *fragCompiler) walk(n *xmltree.Node) {
	if idx, ok := fc.holes[n]; ok {
		fc.ops = append(fc.ops, streamOp{code: OpChild, arg: idx})
		return
	}
	if n.IsText() {
		if n == fc.textHole {
			fc.ops = append(fc.ops, streamOp{code: OpTextHole})
		} else {
			fc.ops = append(fc.ops, streamOp{code: OpText, str: n.Text})
		}
		return
	}
	fc.ops = append(fc.ops, streamOp{code: OpStart, str: n.Label})
	if n == fc.iterAt {
		fc.split = len(fc.ops)
	}
	for _, c := range n.Children {
		fc.walk(c)
	}
	fc.ops = append(fc.ops, streamOp{code: OpEnd})
}

// holeOrder returns the OpChild args in emission order.
func holeOrder(ops []streamOp) []int {
	var order []int
	for _, op := range ops {
		if op.code == OpChild {
			order = append(order, op.arg)
		}
	}
	return order
}

func identity(order []int) bool {
	for i, v := range order {
		if v != i {
			return false
		}
	}
	return true
}

func (e *Embedding) compileProd(a string, md MinDefs) (*compiledProd, error) {
	prod := e.Source.Prods[a]
	cp := &compiledProd{kind: prod.Kind, children: prod.Children}
	switch prod.Kind {
	case dtd.KindStr:
		fc := e.newFragCompiler(md)
		rt := fc.m.t.NewElement(e.Lambda[a])
		steps := e.resolved[EdgeRef{Parent: a, Child: StrChild, Occ: 1}]
		end, err := fc.m.insertSteps(rt, steps)
		if err != nil {
			return nil, err
		}
		tx := fc.m.t.NewText("")
		fc.textHole = tx
		xmltree.Append(end, tx)
		if err := fc.m.fill(rt); err != nil {
			return nil, err
		}
		fc.walk(rt)
		cp.frag = fc.ops

	case dtd.KindEmpty:
		fc := e.newFragCompiler(md)
		rt := fc.m.t.NewElement(e.Lambda[a])
		if err := fc.m.fill(rt); err != nil {
			return nil, err
		}
		fc.walk(rt)
		cp.frag = fc.ops

	case dtd.KindConcat:
		fc := e.newFragCompiler(md)
		rt := fc.m.t.NewElement(e.Lambda[a])
		// Conformance guarantees the instance children arrive exactly
		// as prod.Children, so the occurrence numbering is static.
		occ := make(map[string]int, len(prod.Children))
		for i, c := range prod.Children {
			occ[c]++
			ref := EdgeRef{Parent: a, Child: c, Occ: occ[c]}
			steps, ok := e.resolved[ref]
			if !ok {
				return nil, fmt.Errorf("embedding: no resolved path for edge %s", ref)
			}
			if err := fc.placeholder(rt, steps, i); err != nil {
				return nil, err
			}
		}
		if err := fc.m.fill(rt); err != nil {
			return nil, err
		}
		fc.walk(rt)
		cp.frag = fc.ops
		cp.reorder = !identity(holeOrder(fc.ops))

	case dtd.KindDisj:
		cp.variants = make(map[string][]streamOp, len(prod.Children))
		for _, d := range prod.Children {
			fc := e.newFragCompiler(md)
			rt := fc.m.t.NewElement(e.Lambda[a])
			ref := EdgeRef{Parent: a, Child: d, Occ: 1}
			steps, ok := e.resolved[ref]
			if !ok {
				return nil, fmt.Errorf("embedding: no resolved path for edge %s", ref)
			}
			if err := fc.placeholder(rt, steps, 0); err != nil {
				return nil, err
			}
			if err := fc.m.fill(rt); err != nil {
				return nil, err
			}
			fc.walk(rt)
			cp.variants[d] = fc.ops
		}

	case dtd.KindStar:
		ref := EdgeRef{Parent: a, Child: prod.Children[0], Occ: 1}
		steps, ok := e.resolved[ref]
		if !ok {
			return nil, fmt.Errorf("embedding: no resolved path for edge %s", ref)
		}
		it := iteratorIndex(steps)
		// Skeleton with zero iterations: everything around the
		// iteration point is static (the star-typed target parent of
		// the iterator gains no default children, so iterations drop
		// exactly between its start and end tags).
		fc := e.newFragCompiler(md)
		rt := fc.m.t.NewElement(e.Lambda[a])
		prefixEnd, err := fc.m.insertSteps(rt, steps[:it])
		if err != nil {
			return nil, err
		}
		fc.iterAt = prefixEnd
		if err := fc.m.fill(rt); err != nil {
			return nil, err
		}
		fc.walk(rt)
		cp.prefix, cp.suffix = fc.ops[:fc.split:fc.split], fc.ops[fc.split:]
		// Per-iteration segment: identical for every source child (the
		// per-child occurrence only matters to the parent's ordering,
		// which is already arrival order).
		if it == len(steps)-1 {
			cp.segment = []streamOp{{code: OpChild}}
		} else {
			fc2 := e.newFragCompiler(md)
			iterNode := fc2.m.t.NewElement(steps[it].label)
			if err := fc2.placeholder(iterNode, steps[it+1:], 0); err != nil {
				return nil, err
			}
			if err := fc2.m.fill(iterNode); err != nil {
				return nil, err
			}
			fc2.walk(iterNode)
			cp.segment = fc2.ops
		}
	}
	return cp, nil
}

// tokenSource abstracts the engine's input: the live tokenizer, or a
// cursor over a buffered subtree during a reorder fallback.
type tokenSource interface {
	Next() (xmltree.Tok, error)
	Unread(xmltree.Tok)
}

// tokCursor replays a buffered token slice.
type tokCursor struct {
	toks []xmltree.Tok
	i    int
}

func (c *tokCursor) Next() (xmltree.Tok, error) {
	if c.i >= len(c.toks) {
		return xmltree.Tok{}, fmt.Errorf("embedding: stream: internal: buffered subtree exhausted")
	}
	t := c.toks[c.i]
	c.i++
	return t, nil
}

func (c *tokCursor) Unread(xmltree.Tok) { c.i-- }

// engine is one Run's mutable state.
type engine struct {
	p    *StreamProgram
	ctx  context.Context
	lim  guard.Limits
	emit *xmltree.Emitter

	fallbacks int
	buffered  int
	peak      int
	// counts holds the inverse's same-label child counters of every
	// open trie node.
	counts []int
}

// Run streams one document from r to w under the compiled program.
// The output is byte-identical to ApplyCtx (or, for an inverse
// program, InvertCtx) + Tree.Write on the same document; errors carry
// a *StreamError stage tag and unwrap to the same guard error types as
// the tree path.
func (p *StreamProgram) Run(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	lim := opts.Limits.WithDefaults()
	z := xmltree.NewTokenizerLimits(r, lim)
	em := xmltree.NewEmitter(w)
	g := &engine{p: p, ctx: ctx, lim: lim, emit: em}
	err := g.runDoc(z)
	ts := z.Stats()
	stats := StreamStats{
		Tokens:            ts.Tokens,
		Nodes:             ts.Nodes,
		MaxDepth:          ts.MaxDepth,
		InBytes:           ts.InputBytes,
		OutBytes:          em.Bytes(),
		Fallbacks:         g.fallbacks,
		PeakBufferedBytes: g.peak,
	}
	observeStream(stats)
	return stats, err
}

func (g *engine) runDoc(z *xmltree.Tokenizer) error {
	tok, err := g.next(z)
	if err != nil {
		return err
	}
	if tok.Kind != xmltree.TokStart {
		return g.confErrf("no root element")
	}
	if tok.Name != g.p.root {
		if g.p.inv != nil {
			return invErrf("target root is %q, want %q", tok.Name, g.p.root)
		}
		return g.confErrf("root is %q, want %q", tok.Name, g.p.root)
	}
	if g.p.inv != nil {
		err = g.invert(z, g.p.inv, tok.Name)
	} else {
		err = g.node(z, tok.Name)
	}
	if err != nil {
		return err
	}
	tok, err = g.next(z)
	if err != nil {
		return err
	}
	if tok.Kind != xmltree.TokEOF {
		return g.confErrf("content after the root element")
	}
	if err := g.emit.Flush(); err != nil {
		return &StreamError{Stage: "write", Err: err}
	}
	return nil
}

func (g *engine) next(in tokenSource) (xmltree.Tok, error) {
	tok, err := in.Next()
	if err != nil {
		return tok, &StreamError{Stage: "parse", Err: err}
	}
	return tok, nil
}

// confErrf reports a source-conformance violation, phrased like the
// tree path's upfront Validate failure.
func (g *engine) confErrf(format string, args ...any) error {
	return &StreamError{
		Stage: "map",
		Err:   fmt.Errorf("embedding: source document does not conform to the source schema: %s", fmt.Sprintf(format, args...)),
	}
}

func tokDesc(t xmltree.Tok) string {
	switch t.Kind {
	case xmltree.TokStart:
		return fmt.Sprintf("element %q", t.Name)
	case xmltree.TokText:
		return "text"
	case xmltree.TokEnd:
		return "end of element"
	}
	return "end of document"
}

func (g *engine) expectEnd(in tokenSource, label string) error {
	tok, err := g.next(in)
	if err != nil {
		return err
	}
	if tok.Kind != xmltree.TokEnd {
		return g.confErrf("unexpected %s in %q", tokDesc(tok), label)
	}
	return nil
}

// node maps one source node whose start tag has been consumed,
// consuming through its matching end tag and emitting its production
// fragment.
func (g *engine) node(in tokenSource, label string) error {
	if err := guard.CheckCtx(g.ctx, "embedding: stream"); err != nil {
		return &StreamError{Stage: "map", Err: err}
	}
	cp := g.p.prods[label]
	if cp == nil {
		return g.confErrf("element %q is not defined by the DTD", label)
	}
	switch cp.kind {
	case dtd.KindStr:
		tok, err := g.next(in)
		if err != nil {
			return err
		}
		if tok.Kind != xmltree.TokText {
			return g.confErrf("%q must contain exactly one text node", label)
		}
		if err := g.expectEnd(in, label); err != nil {
			return err
		}
		return g.exec(cp.frag, nil, tok.Text)

	case dtd.KindEmpty:
		tok, err := g.next(in)
		if err != nil {
			return err
		}
		if tok.Kind != xmltree.TokEnd {
			return g.confErrf("%q must be empty, contains %s", label, tokDesc(tok))
		}
		return g.exec(cp.frag, nil, "")

	case dtd.KindConcat:
		if cp.reorder {
			return g.nodeBuffered(in, label, cp)
		}
		// Holes are in arrival order: splice each child as it streams
		// past, O(depth) state.
		if err := g.exec(cp.frag, func(idx int) error {
			tok, err := g.next(in)
			if err != nil {
				return err
			}
			if tok.Kind != xmltree.TokStart || tok.Name != cp.children[idx] {
				return g.confErrf("child %d of %q is %s, want %q", idx+1, label, tokDesc(tok), cp.children[idx])
			}
			return g.node(in, tok.Name)
		}, ""); err != nil {
			return err
		}
		return g.expectEnd(in, label)

	case dtd.KindDisj:
		tok, err := g.next(in)
		if err != nil {
			return err
		}
		if tok.Kind != xmltree.TokStart {
			return g.confErrf("disjunction element %q must have exactly one element child, contains %s", label, tokDesc(tok))
		}
		v, ok := cp.variants[tok.Name]
		if !ok {
			return g.confErrf("child %q of %q is not a permitted disjunct", tok.Name, label)
		}
		if err := g.exec(v, func(int) error {
			return g.node(in, tok.Name)
		}, ""); err != nil {
			return err
		}
		return g.expectEnd(in, label)

	case dtd.KindStar:
		if err := g.exec(cp.prefix, nil, ""); err != nil {
			return err
		}
		for {
			tok, err := g.next(in)
			if err != nil {
				return err
			}
			if tok.Kind == xmltree.TokEnd {
				break
			}
			if tok.Kind != xmltree.TokStart || tok.Name != cp.children[0] {
				return g.confErrf("child of %q is %s, want %q", label, tokDesc(tok), cp.children[0])
			}
			if err := g.exec(cp.segment, func(int) error {
				return g.node(in, tok.Name)
			}, ""); err != nil {
				return err
			}
		}
		return g.exec(cp.suffix, nil, "")
	}
	return g.confErrf("element %q has an unsupported production", label)
}

// nodeBuffered is the reorder fallback: collect every child subtree as
// a token slice (charged against the input-bytes limit), then execute
// the fragment with random access to the buffered children.
func (g *engine) nodeBuffered(in tokenSource, label string, cp *compiledProd) error {
	g.fallbacks++
	bufs := make([][]xmltree.Tok, len(cp.children))
	total := 0
	for i, want := range cp.children {
		tok, err := g.next(in)
		if err != nil {
			return err
		}
		if tok.Kind != xmltree.TokStart || tok.Name != want {
			return g.confErrf("child %d of %q is %s, want %q", i+1, label, tokDesc(tok), want)
		}
		buf, n, err := g.collect(in, tok)
		if err != nil {
			return err
		}
		bufs[i] = buf
		total += n
	}
	if err := g.expectEnd(in, label); err != nil {
		return err
	}
	err := g.exec(cp.frag, func(idx int) error {
		cur := &tokCursor{toks: bufs[idx]}
		tok, err := cur.Next()
		if err != nil {
			return &StreamError{Stage: "map", Err: err}
		}
		return g.node(cur, tok.Name)
	}, "")
	g.buffered -= total
	return err
}

// tokBytes approximates a token's share of the input representation,
// the unit the buffered fallback is charged in.
func tokBytes(t xmltree.Tok) int {
	return len(t.Name) + len(t.Text) + 4
}

// collect reads one complete subtree (start already consumed, passed
// as the first token), charging each buffered token against the
// input-bytes limit.
func (g *engine) collect(in tokenSource, start xmltree.Tok) ([]xmltree.Tok, int, error) {
	toks := []xmltree.Tok{start}
	n := tokBytes(start)
	depth := 1
	for depth > 0 {
		tok, err := g.next(in)
		if err != nil {
			return nil, 0, err
		}
		switch tok.Kind {
		case xmltree.TokStart:
			depth++
		case xmltree.TokEnd:
			depth--
		case xmltree.TokEOF:
			return nil, 0, g.confErrf("unexpected end of document")
		}
		toks = append(toks, tok)
		n += tokBytes(tok)
	}
	g.buffered += n
	if g.buffered > g.peak {
		g.peak = g.buffered
	}
	if err := g.lim.CheckInputBytes(g.buffered, "embedding: stream: buffered subtrees"); err != nil {
		g.buffered -= n
		return nil, 0, &StreamError{Stage: "map", Err: err}
	}
	return toks, n, nil
}

// exec runs a compiled op sequence. onChild handles OpChild holes
// (nil for programs without holes); text fills OpTextHole.
func (g *engine) exec(ops []streamOp, onChild func(int) error, text string) error {
	for i := range ops {
		op := &ops[i]
		var err error
		switch op.code {
		case OpStart:
			err = g.emit.Start(op.str)
		case OpEnd:
			err = g.emit.End()
		case OpText:
			err = g.emit.Text(op.str)
		case OpTextHole:
			err = g.emit.Text(text)
		case OpChild:
			if cerr := onChild(op.arg); cerr != nil {
				return cerr
			}
			continue
		}
		if err != nil {
			return &StreamError{Stage: "write", Err: err}
		}
	}
	return nil
}

// bufferedBuckets spans "nothing buffered" through the default input
// budget in powers of four.
var bufferedBuckets = []float64{0, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}

// Process-registry instruments for streaming migrations, bumped once
// per document after its run.
var (
	mStreamDocs = obs.Default().Counter("xse_stream_docs_total",
		"Documents migrated by the streaming instance mapper.")
	mStreamTokens = obs.Default().Counter("xse_stream_tokens_total",
		"Source tokens consumed by streaming migrations.")
	mStreamFallbacks = obs.Default().Counter("xse_stream_fallbacks_total",
		"Buffered-subtree fallbacks taken for reordering productions.")
	mStreamBufferedPeak = obs.Default().Histogram("xse_stream_buffered_peak_bytes",
		"Per-document peak bytes of buffered source subtrees.", bufferedBuckets)
	mStreamMaxDepth = obs.Default().Gauge("xse_stream_max_depth",
		"Deepest source nesting observed by any streaming migration.")
)

func observeStream(s StreamStats) {
	mStreamDocs.Inc()
	mStreamTokens.Add(uint64(s.Tokens))
	if s.Fallbacks > 0 {
		mStreamFallbacks.Add(uint64(s.Fallbacks))
	}
	mStreamBufferedPeak.Observe(float64(s.PeakBufferedBytes))
	mStreamMaxDepth.SetMax(int64(s.MaxDepth))
}
