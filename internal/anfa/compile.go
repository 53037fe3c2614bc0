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
// map lookups or per-call allocation. Visited sets are xmltree.Marks
// over the document's NodeIDs, qualifier results are memoized per
// (qualifier, node), and qualifier sub-machine runs stop at the first
// witness instead of collecting their full selection.
//
// A Program is safe for concurrent use: each Run borrows an
// independent scratch runner from a package-level pool, matching
// xpath.Program. EvalInterpreted is its differential oracle (see the
// anfa-opt-differential oracle property and FuzzAnfaOptimize).
type Program struct {
	mach  []progMachine
	quals []cqual
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
	tEps   uint8 = iota
	tLabel       // a child step; text children carry TextLabel
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
	mOptPrograms.Inc()
	return p
}

// Program returns the compiled form of the automaton, building it on
// first use and reusing it afterwards — an Automaton held in the
// translation or server artifact caches carries its program with it.
// Concurrent first calls may each compile; the first stored program
// wins, so every caller gets the same pointer. RemoveUseless and
// Optimize reset the memo; the Machine mutators do not, so build an
// automaton completely before evaluating it, and do not mutate it
// concurrently with evaluation.
func (a *Automaton) Program() *Program {
	if p := a.prog.Load(); p != nil {
		return p
	}
	if p := Compile(a); a.prog.CompareAndSwap(nil, p) {
		return p
	}
	return a.prog.Load()
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
			if t.Label == Epsilon {
				k = tEps
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
// freshly allocated and caller-owned, nil when empty.
func (p *Program) Run(ctx *xmltree.Node) []*xmltree.Node {
	res, _ := p.RunCtx(context.Background(), ctx)
	return res
}

// runners recycles evaluation scratch across Runs of every Program;
// a runner is bound to its program for the duration of one Run.
var runners = sync.Pool{New: func() any { return &progRunner{} }}

// RunCtx is Run under a context: the exploration checks for
// cancellation every 4096 explored pairs and returns a
// *guard.CancelError (matching the context's error under errors.Is)
// when cut short.
func (p *Program) RunCtx(cctx context.Context, ctx *xmltree.Node) ([]*xmltree.Node, error) {
	mCompiledEvals.Inc()
	r := runners.Get().(*progRunner)
	r.p, r.cctx = p, cctx
	r.memo.Reset(2 * len(p.quals))
	res, _ := r.run(0, ctx, modeCollect, "")
	err := r.err
	r.p, r.cctx, r.err, r.steps = nil, nil, nil, 0
	runners.Put(r)
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

// cpair is one explored (state, node) pair; pos is the node's
// position among its same-label siblings, 0 when unknown.
type cpair struct {
	state int32
	node  *xmltree.Node
	pos   int
}

// progRunner is one goroutine's evaluation scratch: a free list of
// per-machine-run frames plus the (qualifier, node) result memo.
type progRunner struct {
	p      *Program
	cctx   context.Context
	frames []*progFrame
	memo   xmltree.Marks // per qual q: set 2q = verdict known, set 2q+1 = verdict true
	steps  int
	err    error
}

// progFrame is one machine run's scratch: sets 0..states-1 hold the
// nodes active in each state, set states the result dedupe set. All
// empty in one Reset, so acquiring a frame is O(1).
type progFrame struct {
	marks xmltree.Marks
	queue []cpair
}

func (r *progRunner) getFrame(states int) *progFrame {
	var f *progFrame
	if n := len(r.frames); n > 0 {
		f = r.frames[n-1]
		r.frames = r.frames[:n-1]
	} else {
		f = &progFrame{}
	}
	f.marks.Reset(states + 1)
	f.queue = f.queue[:0]
	return f
}

func (r *progRunner) putFrame(f *progFrame) {
	clear(f.queue) // drop node pointers; the pool must not pin documents
	f.queue = f.queue[:0]
	r.frames = append(r.frames, f)
}

// checkCancel observes the context every 4096 explored pairs.
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
	seen := int(m.states)
	var result []*xmltree.Node
	found := false

	// push enters (s, n) at position pos; true means the predicate
	// mode is satisfied and the caller should stop exploring.
	push := func(s int32, n *xmltree.Node, pos int) bool {
		if f.marks.Has(int(s), n.ID) {
			return false
		}
		if qi := m.ann[s]; qi >= 0 && !r.holds(qi, n, &pos) {
			return false
		}
		f.marks.Add(int(s), n.ID)
		f.queue = append(f.queue, cpair{state: s, node: n, pos: pos})
		if m.final[s] {
			switch mode {
			case modeCollect:
				if f.marks.Add(seen, n.ID) {
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

	if !push(m.start, ctx, 0) {
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
					if push(t.to, pr.node, pr.pos) {
						break explore
					}
				case tLabel:
					pos := 0
					for _, ch := range pr.node.Children {
						if ch.Label == t.label {
							if pos++; push(t.to, ch, pos) {
								break explore
							}
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
// machine tests per (qualifier, node). *pos is n's position, as
// counted by the child loop that reached n, or 0 for a run's start
// node, whose position a position test works out once.
func (r *progRunner) holds(qi int32, n *xmltree.Node, pos *int) bool {
	q := &r.p.quals[qi]
	switch q.op {
	case cqFalse:
		return false
	case cqPos:
		if *pos == 0 {
			*pos = n.ChildPosition()
		}
		return *pos == int(q.k)
	case cqNot:
		return !r.holds(q.l, n, pos)
	case cqAnd:
		return r.holds(q.l, n, pos) && r.holds(q.r, n, pos)
	case cqOr:
		return r.holds(q.l, n, pos) || r.holds(q.r, n, pos)
	case cqName, cqTextEq:
		known, verdict := 2*int(qi), 2*int(qi)+1
		if r.memo.Has(known, n.ID) {
			return r.memo.Has(verdict, n.ID)
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
		r.memo.Add(known, n.ID)
		if ok {
			r.memo.Add(verdict, n.ID)
		}
		return ok
	}
	return false
}
