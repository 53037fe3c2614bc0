package xpath

import (
	"sync"

	"repro/internal/xmltree"
)

// Program is a compiled, reusable evaluation plan for one X_R (or X)
// expression. Compiling flattens the AST into a dense instruction
// array once; every Run then evaluates without walking interface
// values and — crucially for the per-request hot path — without
// allocating the per-step dedupe maps of the tree-walking
// interpreter. Visited sets are xmltree.Marks over the document's
// NodeIDs, and node-list scratch is recycled through a free list.
//
// A Program is safe for concurrent use: each Run borrows an
// independent evaluation scratch from a package-level pool, so one
// compiled query can serve any number of goroutines (the
// amortization the paper's §5 value proposition rests on: one
// embedding and one translated query, unboundedly many documents).
// The tree-walking EvalInterpreted is its differential oracle.
type Program struct {
	ins   []inst
	quals []qinst
	root  int32
	src   Expr
}

type opcode uint8

const (
	opSelf opcode = iota // ε
	opLabel
	opText
	opSeq
	opUnion
	opStar
	opDesc
	opFilter
)

type qopcode uint8

const (
	qTrue qopcode = iota
	qPath
	qTextEq
	qPos
	qNot
	qAnd
	qOr
)

// inst is one compiled expression node. l and r index ins, except for
// opFilter where r indexes quals and for opLabel/opText/opSelf where
// both are unused.
type inst struct {
	op   opcode
	l, r int32
	name string // opLabel tag
}

// qinst is one compiled qualifier node. For qPath/qTextEq l indexes
// ins (the qualifier's path); for qNot/qAnd/qOr l and r index quals.
type qinst struct {
	op  qopcode
	l   int32
	r   int32
	val string // qTextEq constant
	k   int32  // qPos position
}

// Compile builds the evaluation plan for e. The expression is
// compiled as-is: descendant-or-self steps (the X fragment) are
// supported directly, mirroring the interpreter.
func Compile(e Expr) *Program {
	n := Size(e)
	p := &Program{
		ins:   make([]inst, 0, n),
		quals: make([]qinst, 0, 4),
		src:   e,
	}
	p.root = p.compileExpr(e)
	mCompiles.Inc()
	mProgramLen.Observe(float64(len(p.ins) + len(p.quals)))
	return p
}

// String renders the compiled expression in the package's textual
// syntax.
func (p *Program) String() string { return String(p.src) }

func (p *Program) compileExpr(e Expr) int32 {
	switch e := e.(type) {
	case Empty:
		return p.emit(inst{op: opSelf})
	case Label:
		return p.emit(inst{op: opLabel, name: e.Name})
	case Text:
		return p.emit(inst{op: opText})
	case Seq:
		l := p.compileExpr(e.L)
		r := p.compileExpr(e.R)
		return p.emit(inst{op: opSeq, l: l, r: r})
	case Union:
		l := p.compileExpr(e.L)
		r := p.compileExpr(e.R)
		return p.emit(inst{op: opUnion, l: l, r: r})
	case Star:
		l := p.compileExpr(e.P)
		return p.emit(inst{op: opStar, l: l})
	case Desc:
		l := p.compileExpr(e.L)
		r := p.compileExpr(e.R)
		return p.emit(inst{op: opDesc, l: l, r: r})
	case Filter:
		l := p.compileExpr(e.P)
		q := p.compileQual(e.Q)
		return p.emit(inst{op: opFilter, l: l, r: q})
	}
	// Unknown Expr implementations cannot arise from this package's
	// constructors; compile them as the empty path.
	return p.emit(inst{op: opSelf})
}

func (p *Program) compileQual(q Qual) int32 {
	switch q := q.(type) {
	case QTrue:
		return p.emitQ(qinst{op: qTrue})
	case QPath:
		l := p.compileExpr(q.P)
		return p.emitQ(qinst{op: qPath, l: l})
	case QTextEq:
		l := p.compileExpr(q.P)
		return p.emitQ(qinst{op: qTextEq, l: l, val: q.Val})
	case QPos:
		return p.emitQ(qinst{op: qPos, k: int32(q.K)})
	case QNot:
		l := p.compileQual(q.Q)
		return p.emitQ(qinst{op: qNot, l: l})
	case QAnd:
		l := p.compileQual(q.L)
		r := p.compileQual(q.R)
		return p.emitQ(qinst{op: qAnd, l: l, r: r})
	case QOr:
		l := p.compileQual(q.L)
		r := p.compileQual(q.R)
		return p.emitQ(qinst{op: qOr, l: l, r: r})
	}
	return p.emitQ(qinst{op: qTrue})
}

func (p *Program) emit(in inst) int32 {
	p.ins = append(p.ins, in)
	return int32(len(p.ins) - 1)
}

func (p *Program) emitQ(q qinst) int32 {
	p.quals = append(p.quals, q)
	return int32(len(p.quals) - 1)
}

// runners recycles evaluation scratch across Runs of every Program;
// a runner is bound to its program for the duration of one Run.
var runners = sync.Pool{New: func() any { return &runner{} }}

// Run evaluates the program at the context node, returning the
// selected nodes in the interpreter's first-reached order without
// duplicates. The returned slice is freshly allocated and owned by
// the caller; empty results are nil, matching Eval.
func (p *Program) Run(ctx *xmltree.Node) []*xmltree.Node {
	r := runners.Get().(*runner)
	out := r.run(p, ctx)
	runners.Put(r)
	return out
}

// run evaluates p at ctx on the runner's scratch, leaving the runner
// unbound and every borrowed buffer back on its free list.
func (r *runner) run(p *Program, ctx *xmltree.Node) []*xmltree.Node {
	r.p = p
	r.countUse()
	var one [1]*xmltree.Node
	one[0] = ctx
	res := r.eval(p.root, one[:])
	out := finish(res)
	r.putBuf(res)
	r.p = nil
	return out
}

// finish copies a borrowed scratch result into a caller-owned slice.
func finish(res []*xmltree.Node) []*xmltree.Node {
	if len(res) == 0 {
		return nil
	}
	out := make([]*xmltree.Node, len(res))
	copy(out, res)
	return out
}

// runner is the per-goroutine evaluation scratch of a Program: a free
// list of node slices and a stack of visited sets (several can be
// live at once — a Star's seen set across inner evaluations that
// dedupe on their own).
type runner struct {
	p    *Program
	free [][]*xmltree.Node
	sets []*xmltree.Marks
	used bool // set on first use; later uses are pool recycles
}

// countUse records one evaluation, distinguishing a pooled runner
// (scratch recycled) from a fresh allocation.
func (r *runner) countUse() {
	mEvals.Inc()
	if r.used {
		mScratchRecycles.Inc()
	} else {
		r.used = true
	}
}

func (r *runner) getBuf() []*xmltree.Node {
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free = r.free[:n-1]
		return b[:0]
	}
	return make([]*xmltree.Node, 0, 16)
}

// putBuf returns a buffer to the free list cleared, so a pooled
// runner pins no document. Every site that shortens a borrowed buffer
// clears what it drops, so b[len(b):cap(b)] holds no pointer already.
func (r *runner) putBuf(b []*xmltree.Node) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	r.free = append(r.free, b[:0])
}

// acquireSet borrows an empty visited set (set 0 of a one-set Marks).
func (r *runner) acquireSet() *xmltree.Marks {
	var s *xmltree.Marks
	if n := len(r.sets); n > 0 {
		s = r.sets[n-1]
		r.sets = r.sets[:n-1]
	} else {
		s = &xmltree.Marks{}
	}
	s.Reset(1)
	return s
}

func (r *runner) releaseSet(s *xmltree.Marks) { r.sets = append(r.sets, s) }

// dedupeInPlace removes duplicates from a borrowed buffer, keeping
// first occurrences in order. Small results use a quadratic scan
// (cheaper than set bookkeeping under ~8 nodes); larger ones a
// visited set.
func (r *runner) dedupeInPlace(nodes []*xmltree.Node) []*xmltree.Node {
	if len(nodes) <= 1 {
		return nodes
	}
	out := nodes[:0]
	if len(nodes) <= smallDedupe {
		for _, n := range nodes {
			dup := false
			for _, m := range out {
				if m == n {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, n)
			}
		}
	} else {
		s := r.acquireSet()
		for _, n := range nodes {
			if s.Add(0, n.ID) {
				out = append(out, n)
			}
		}
		r.releaseSet(s)
	}
	clear(nodes[len(out):]) // the dropped tail must not pin nodes (putBuf)
	return out
}

// eval computes the set image of instruction idx over the context
// nodes into a borrowed buffer, deduplicated in first-reached order —
// the exact semantics of the interpreter's evaluator.eval, case by
// case.
func (r *runner) eval(idx int32, ctxs []*xmltree.Node) []*xmltree.Node {
	in := &r.p.ins[idx]
	switch in.op {
	case opSelf:
		out := r.getBuf()
		out = append(out, ctxs...)
		return r.dedupeInPlace(out)

	case opLabel:
		out := r.getBuf()
		for _, c := range ctxs {
			for _, ch := range c.Children {
				if ch.Label == in.name {
					out = append(out, ch)
				}
			}
		}
		if len(ctxs) > 1 { // children of distinct parents are distinct
			out = r.dedupeInPlace(out)
		}
		return out

	case opText:
		out := r.getBuf()
		for _, c := range ctxs {
			for _, ch := range c.Children {
				if ch.IsText() {
					out = append(out, ch)
				}
			}
		}
		if len(ctxs) > 1 {
			out = r.dedupeInPlace(out)
		}
		return out

	case opSeq:
		mid := r.eval(in.l, ctxs)
		out := r.eval(in.r, mid)
		r.putBuf(mid)
		return out

	case opDesc:
		mid := r.eval(in.l, ctxs)
		all := r.getBuf()
		for _, n := range mid {
			all = appendDescOrSelf(all, n)
		}
		r.putBuf(mid)
		all = r.dedupeInPlace(all)
		out := r.eval(in.r, all)
		r.putBuf(all)
		return out

	case opUnion:
		l := r.eval(in.l, ctxs)
		rr := r.eval(in.r, ctxs)
		l = append(l, rr...)
		r.putBuf(rr)
		return r.dedupeInPlace(l)

	case opStar:
		out := r.getBuf()
		s := r.acquireSet()
		for _, n := range ctxs {
			if s.Add(0, n.ID) {
				out = append(out, n)
			}
		}
		frontier := r.getBuf()
		frontier = append(frontier, out...)
		for len(frontier) > 0 {
			next := r.eval(in.l, frontier)
			clear(frontier)
			frontier = frontier[:0]
			for _, n := range next {
				if s.Add(0, n.ID) {
					out = append(out, n)
					frontier = append(frontier, n)
				}
			}
			r.putBuf(next)
		}
		r.putBuf(frontier)
		r.releaseSet(s)
		return out

	case opFilter:
		out := r.getBuf()
		cbuf := r.getBuf()
		for _, c := range ctxs {
			cbuf = append(cbuf[:0], c)
			sel := r.eval(in.l, cbuf)
			for i, n := range sel {
				if r.holds(in.r, n, i+1) {
					out = append(out, n)
				}
			}
			r.putBuf(sel)
		}
		r.putBuf(cbuf)
		return r.dedupeInPlace(out)
	}
	return r.getBuf()
}

// holds evaluates compiled qualifier qidx at node n with position pos,
// mirroring evaluator.holds.
func (r *runner) holds(qidx int32, n *xmltree.Node, pos int) bool {
	q := &r.p.quals[qidx]
	switch q.op {
	case qTrue:
		return true
	case qPath:
		cbuf := r.getBuf()
		cbuf = append(cbuf, n)
		res := r.eval(q.l, cbuf)
		ok := len(res) > 0
		r.putBuf(res)
		r.putBuf(cbuf)
		return ok
	case qTextEq:
		cbuf := r.getBuf()
		cbuf = append(cbuf, n)
		res := r.eval(q.l, cbuf)
		ok := false
		for _, m := range res {
			if m.IsText() && m.Text == q.val {
				ok = true
				break
			}
		}
		r.putBuf(res)
		r.putBuf(cbuf)
		return ok
	case qPos:
		return pos == int(q.k)
	case qNot:
		return !r.holds(q.l, n, pos)
	case qAnd:
		return r.holds(q.l, n, pos) && r.holds(q.r, n, pos)
	case qOr:
		return r.holds(q.l, n, pos) || r.holds(q.r, n, pos)
	}
	return false
}

func appendDescOrSelf(out []*xmltree.Node, n *xmltree.Node) []*xmltree.Node {
	out = append(out, n)
	for _, c := range n.Children {
		out = appendDescOrSelf(out, c)
	}
	return out
}
