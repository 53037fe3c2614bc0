package anfa

import (
	"context"
	"sync"

	"repro/internal/guard"
	"repro/internal/xmltree"
)

// Program is a compiled, reusable evaluation plan for one Automaton —
// the ANFA counterpart of xpath.Compile. Compiling flattens every
// machine (the top machine plus the named sub-machines reachable from
// its qualifiers) into dense state/transition/qualifier instruction
// arrays once; every Run then explores (state, node) pairs without
// map lookups or per-call allocation. Visited sets are epoch-stamped
// arrays indexed by the dense xmltree.NodeID space of the document,
// qualifier results are memoized per (qualifier, node), and qualifier
// sub-machine runs stop at the first witness instead of collecting
// their full selection.
//
// A Program is safe for concurrent use: each Run borrows an
// independent scratch runner from an internal sync.Pool. All context
// nodes of one Run must belong to one document (NodeIDs are unique
// within a tree, reused across trees), matching xpath.Program.
//
// The tree-walking Eval remains the differential oracle for this
// backend (see the anfa-opt-differential oracle property and
// FuzzAnfaOptimize).
type Program struct {
	mach  []progMachine
	quals []cqual
	pool  sync.Pool // *progRunner
}

type progMachine struct {
	start  int32
	states int32
	final  []bool
	ann    []int32 // qual index per state, -1 when unannotated
	lo     []int32 // transitions of state s are trans[lo[s]:lo[s+1]]
	trans  []ctrans
}

type ctrans struct {
	kind  uint8
	to    int32
	label string
}

const (
	tEps uint8 = iota
	tText
	tLabel
)

type cqop uint8

const (
	cqFalse  cqop = iota // reference to a name the automaton lacks
	cqName               // l = machine index
	cqTextEq             // l = machine index, val = constant
	cqPos                // k = position
	cqNot                // l = qual
	cqAnd                // l, r = quals
	cqOr                 // l, r = quals
)

type cqual struct {
	op   cqop
	l, r int32
	k    int32
	val  string
}

// Compile builds the evaluation plan for the automaton as it stands;
// run the optimizer first (translate does). Only sub-machines
// actually referenced by qualifiers are compiled.
func Compile(a *Automaton) *Program {
	p := &Program{}
	c := &compiler{p: p, a: a, midx: map[string]int32{}}
	c.machine(a.M)
	p.pool.New = func() any { return &progRunner{} }
	mOptPrograms.Inc()
	return p
}

// Program returns the compiled form of the automaton, building it on
// first use and reusing it afterwards — an Automaton held in the
// translation or server artifact caches carries its program with it.
// Mutating passes (RemoveUseless, Optimize) invalidate the memo; do
// not mutate an automaton concurrently with evaluation.
func (a *Automaton) Program() *Program {
	a.progMu.Lock()
	defer a.progMu.Unlock()
	if a.prog == nil {
		a.prog = Compile(a)
	}
	return a.prog
}

func (a *Automaton) invalidateProgram() {
	a.progMu.Lock()
	a.prog = nil
	a.progMu.Unlock()
}

type compiler struct {
	p    *Program
	a    *Automaton
	midx map[string]int32
}

func (c *compiler) machine(m *Machine) int32 {
	idx := int32(len(c.p.mach))
	c.p.mach = append(c.p.mach, progMachine{})
	pm := progMachine{
		start:  int32(m.Start),
		states: int32(m.States),
		final:  make([]bool, m.States),
		ann:    make([]int32, m.States),
		lo:     make([]int32, m.States+1),
	}
	for s := 0; s < m.States; s++ {
		pm.final[s] = m.Finals[StateID(s)]
		pm.ann[s] = -1
	}
	for s := 0; s < m.States; s++ {
		pm.lo[s] = int32(len(pm.trans))
		for _, t := range m.Trans[s] {
			k := tLabel
			switch t.Label {
			case Epsilon:
				k = tEps
			case TextLabel:
				k = tText
			}
			pm.trans = append(pm.trans, ctrans{kind: k, to: int32(t.To), label: t.Label})
		}
	}
	pm.lo[m.States] = int32(len(pm.trans))
	for s := 0; s < m.States; s++ {
		if q, ok := m.Ann[StateID(s)]; ok {
			pm.ann[s] = c.qual(q)
		}
	}
	c.p.mach[idx] = pm
	return idx
}

// name resolves a referenced sub-machine to its compiled index,
// compiling it on first reference. The index is reserved before the
// body compiles, so (defensively) cyclic references terminate.
func (c *compiler) name(x string) int32 {
	if i, ok := c.midx[x]; ok {
		return i
	}
	m, ok := c.a.Names[x]
	if !ok {
		c.midx[x] = -1
		return -1
	}
	c.midx[x] = int32(len(c.p.mach))
	return c.machine(m)
}

func (c *compiler) qual(q Qual) int32 {
	switch q := q.(type) {
	case QName:
		mi := c.name(q.X)
		if mi < 0 {
			return c.emit(cqual{op: cqFalse})
		}
		return c.emit(cqual{op: cqName, l: mi})
	case QTextEq:
		mi := c.name(q.X)
		if mi < 0 {
			return c.emit(cqual{op: cqFalse})
		}
		return c.emit(cqual{op: cqTextEq, l: mi, val: q.Val})
	case QPos:
		return c.emit(cqual{op: cqPos, k: int32(q.K)})
	case QNot:
		l := c.qual(q.Q)
		return c.emit(cqual{op: cqNot, l: l})
	case QAnd:
		l := c.qual(q.L)
		r := c.qual(q.R)
		return c.emit(cqual{op: cqAnd, l: l, r: r})
	case QOr:
		l := c.qual(q.L)
		r := c.qual(q.R)
		return c.emit(cqual{op: cqOr, l: l, r: r})
	}
	return c.emit(cqual{op: cqFalse})
}

func (c *compiler) emit(q cqual) int32 {
	c.p.quals = append(c.p.quals, q)
	return int32(len(c.p.quals) - 1)
}

// Run evaluates the program at the context node, returning the
// selected nodes deduplicated in first-acceptance order; the slice is
// freshly allocated and caller-owned, nil when empty (matching Eval).
func (p *Program) Run(ctx *xmltree.Node) []*xmltree.Node {
	res, _ := p.RunCtx(context.Background(), ctx)
	return res
}

// RunCtx is Run under a context: the exploration checks for
// cancellation every few thousand pairs and returns a
// *guard.CancelError (matching the context's error under errors.Is)
// when cut short.
func (p *Program) RunCtx(cctx context.Context, ctx *xmltree.Node) ([]*xmltree.Node, error) {
	mCompiledEvals.Inc()
	r := p.pool.Get().(*progRunner)
	r.p, r.cctx = p, cctx
	if len(r.qmark) < len(p.quals) {
		r.qmark = make([][]uint32, len(p.quals))
		r.qval = make([][]bool, len(p.quals))
	}
	r.qepoch++
	if r.qepoch == 0 {
		for i := range r.qmark {
			clear(r.qmark[i])
		}
		r.qepoch = 1
	}
	res, _ := r.run(0, ctx, modeCollect, "")
	err := r.err
	r.p, r.cctx, r.err, r.steps = nil, nil, nil, 0
	p.pool.Put(r)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Evaluation modes: collect the selection, or stop at the first
// witness (qualifier emptiness / text-equality tests).
const (
	modeCollect = iota
	modeAny
	modeAnyText
)

type cpair struct {
	state int32
	node  *xmltree.Node
}

// progRunner is one goroutine's evaluation scratch: a free list of
// per-machine-run frames plus the (qualifier, node) result memo,
// epoch-stamped so reuse across runs is O(1).
type progRunner struct {
	p      *Program
	cctx   context.Context
	frames []*progFrame
	qmark  [][]uint32 // per qual: epoch stamp by NodeID
	qval   [][]bool   // per qual: memoized result by NodeID
	qepoch uint32
	steps  int
	err    error
}

// progFrame is one machine run's scratch: per-state active marks and
// the result dedupe set, all epoch-stamped over NodeIDs.
type progFrame struct {
	active [][]uint32
	seen   []uint32
	epoch  uint32
	queue  []cpair
}

func (r *progRunner) getFrame(states int) *progFrame {
	var f *progFrame
	if n := len(r.frames); n > 0 {
		f = r.frames[n-1]
		r.frames = r.frames[:n-1]
	} else {
		f = &progFrame{}
	}
	if len(f.active) < states {
		grown := make([][]uint32, states)
		copy(grown, f.active)
		f.active = grown
	}
	f.epoch++
	if f.epoch == 0 {
		for i := range f.active {
			clear(f.active[i])
		}
		clear(f.seen)
		f.epoch = 1
	}
	f.queue = f.queue[:0]
	return f
}

func (r *progRunner) putFrame(f *progFrame) {
	clear(f.queue) // drop node pointers; the pool must not pin documents
	f.queue = f.queue[:0]
	r.frames = append(r.frames, f)
}

func (f *progFrame) has(s int32, id int) bool {
	row := f.active[s]
	return id < len(row) && row[id] == f.epoch
}

func (f *progFrame) mark(s int32, id int) {
	row := f.active[s]
	if id >= len(row) {
		grown := make([]uint32, id+id/2+64)
		copy(grown, row)
		f.active[s] = grown
		row = grown
	}
	row[id] = f.epoch
}

// see inserts the node into the result dedupe set, reporting whether
// it was absent.
func (f *progFrame) see(id int) bool {
	if id >= len(f.seen) {
		grown := make([]uint32, id+id/2+64)
		copy(grown, f.seen)
		f.seen = grown
	}
	if f.seen[id] == f.epoch {
		return false
	}
	f.seen[id] = f.epoch
	return true
}

// checkCancel observes the context every 4096 explored pairs, exactly
// like the interpreter.
func (r *progRunner) checkCancel() bool {
	r.steps++
	if r.steps&4095 == 0 {
		if err := guard.CheckCtx(r.cctx, "anfa: run"); err != nil {
			r.err = err
		}
	}
	return r.err != nil
}

// run explores machine mi from ctx. In modeCollect it returns the
// selection; in modeAny / modeAnyText it returns ok=true as soon as a
// final node (with matching text) is reached and abandons the rest of
// the frontier.
func (r *progRunner) run(mi int32, ctx *xmltree.Node, mode int, val string) ([]*xmltree.Node, bool) {
	m := &r.p.mach[mi]
	if m.states == 0 || r.err != nil {
		return nil, false
	}
	f := r.getFrame(int(m.states))
	var result []*xmltree.Node
	found := false

	// push enters (s, n); true means the predicate mode is satisfied
	// and the caller should stop exploring.
	push := func(s int32, n *xmltree.Node) bool {
		id := int(n.ID)
		if f.has(s, id) {
			return false
		}
		if qi := m.ann[s]; qi >= 0 && !r.holds(qi, n) {
			return false
		}
		f.mark(s, id)
		f.queue = append(f.queue, cpair{state: s, node: n})
		if m.final[s] {
			switch mode {
			case modeCollect:
				if f.see(id) {
					result = append(result, n)
				}
			case modeAny:
				found = true
				return true
			case modeAnyText:
				if n.IsText() && n.Text == val {
					found = true
					return true
				}
			}
		}
		return false
	}

	if !push(m.start, ctx) {
	explore:
		for head := 0; head < len(f.queue); head++ {
			if r.checkCancel() {
				break
			}
			pr := f.queue[head]
			for ti := m.lo[pr.state]; ti < m.lo[pr.state+1]; ti++ {
				t := &m.trans[ti]
				switch t.kind {
				case tEps:
					if push(t.to, pr.node) {
						break explore
					}
				case tText:
					for _, ch := range pr.node.Children {
						if ch.IsText() && push(t.to, ch) {
							break explore
						}
					}
				case tLabel:
					for _, ch := range pr.node.Children {
						if ch.Label == t.label && push(t.to, ch) {
							break explore
						}
					}
				}
			}
		}
	}
	r.putFrame(f)
	return result, found
}

// holds evaluates compiled qualifier qi at n, memoizing the sub-
// machine tests per (qualifier, node).
func (r *progRunner) holds(qi int32, n *xmltree.Node) bool {
	q := &r.p.quals[qi]
	switch q.op {
	case cqFalse:
		return false
	case cqPos:
		return n.ChildPosition() == int(q.k)
	case cqNot:
		return !r.holds(q.l, n)
	case cqAnd:
		return r.holds(q.l, n) && r.holds(q.r, n)
	case cqOr:
		return r.holds(q.l, n) || r.holds(q.r, n)
	case cqName, cqTextEq:
		id := int(n.ID)
		if row := r.qmark[qi]; id < len(row) && row[id] == r.qepoch {
			return r.qval[qi][id]
		}
		var ok bool
		if q.op == cqName {
			_, ok = r.run(q.l, n, modeAny, "")
		} else {
			_, ok = r.run(q.l, n, modeAnyText, q.val)
		}
		if r.err != nil {
			// A canceled run is not evidence; don't memoize.
			return ok
		}
		row := r.qmark[qi]
		if id >= len(row) {
			grown := make([]uint32, id+id/2+64)
			copy(grown, row)
			r.qmark[qi] = grown
			row = grown
			vgrown := make([]bool, len(grown))
			copy(vgrown, r.qval[qi])
			r.qval[qi] = vgrown
		}
		row[id] = r.qepoch
		r.qval[qi][id] = ok
		return ok
	}
	return false
}
