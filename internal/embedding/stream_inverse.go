package embedding

import (
	"fmt"

	"repro/internal/dtd"
	"repro/internal/guard"
	"repro/internal/xmltree"
)

// Streaming inverse: σd⁻¹ applied during tokenization of the target
// document. The tree inverse (inverse.go) recovers each source node of
// type A from the target node λ(A) it was mapped to by following the
// paths of A's child edges. Those paths are prefix-free (§4.1), so per
// source type they form a deterministic trie over target steps, keyed
// by (label, occurrence among same-label siblings). Walking that trie
// while the target streams past makes σd⁻¹ a top-down, one-pass
// transformation like σd itself:
//
//   - a target child that starts no trie edge lies on no path (it is
//     default fill or foreign content the tree inverse never visits)
//     and is tokenized without being emitted;
//   - a leaf for the i-th child of a concatenation is inverted in place
//     when the children before it are done, and otherwise buffered as
//     a token run (charged like the forward reorder fallback) until
//     they are;
//   - a disjunction takes whichever disjunct leaf appears, and fails
//     when a second one does;
//   - a star takes every child of the iterator's parent, in document
//     order, as one source child;
//   - a str type takes the first text child of its text node.
//
// Run's output is byte-identical to InvertCtx + Tree.Write, and it
// accepts exactly the documents InvertCtx accepts (save that a
// buffered run is charged a few bytes per token against
// MaxInputBytes, as on the forward engine). InvertCtx's output
// conforms to the source schema by construction, and so does this
// one, since it emits the same event sequence.

// invKind discriminates trie nodes.
type invKind uint8

const (
	// invInner routes element children along trie edges and skips the
	// rest.
	invInner invKind = iota
	// invLeaf is the target node of one source child (leaf index).
	invLeaf
	// invText is the end of a str path: its first text child is the
	// source value.
	invText
	// invIter is the parent of a star path's iterator step: every child
	// must be an iterLabel element, and each one is an iteration.
	invIter
)

// invNode is one node of a source type's path trie.
type invNode struct {
	kind invKind
	// kids are the outgoing edges of an inner node; kid.slot numbers
	// the distinct labels among them (the per-label occurrence counter
	// the edge reads).
	kids   []invEdge
	labels int
	// leaf is the source child index of a leaf (production order).
	leaf int
	// iterLabel and iter describe an iterator parent: the label of the
	// iterator step, and the trie node of one iteration element (a
	// leaf when the iterator is the path's last step).
	iterLabel string
	iter      *invNode
}

// invEdge is one trie edge: the occ-th target child labelled label.
type invEdge struct {
	label string
	occ   int
	slot  int
	node  *invNode
}

// invProd is the inverse program of one source type.
type invProd struct {
	name string
	kind dtd.Kind
	// root is the trie over the target node λ(name).
	root *invNode
	// children are the programs of the source children, indexed by
	// leaf; edges name the matching source edges, for errors.
	children []*invProd
	edges    []resolvedEdge
	paths    []string
}

// CompileStreamInverse validates the embedding and compiles σd⁻¹ into a
// StreamProgram that reads target documents and writes the source
// documents they are the image of. Run's output is byte-identical to
// InvertCtx followed by Tree.Write, and a document is rejected exactly
// when InvertCtx rejects it. Like CompileStream, the program is
// compiled once per embedding.
func (e *Embedding) CompileStreamInverse() (*StreamProgram, error) {
	return e.memoProgram(&e.inv, e.compileStreamInverse)
}

func (e *Embedding) compileStreamInverse() (*StreamProgram, error) {
	progs := make(map[string]*invProd, len(e.Source.Types))
	for _, a := range e.Source.Types {
		ip := &invProd{name: a, kind: e.Source.Prods[a].Kind, edges: e.edges[a]}
		for _, ed := range ip.edges {
			ip.paths = append(ip.paths, e.Paths[ed.ref].String())
		}
		progs[a] = ip
	}
	for _, a := range e.Source.Types {
		ip := progs[a]
		root, err := ip.compile()
		if err != nil {
			return nil, fmt.Errorf("embedding: compile stream inverse for %q: %w", a, err)
		}
		ip.root = root
		if ip.kind != dtd.KindStr {
			for _, ed := range ip.edges {
				ip.children = append(ip.children, progs[ed.ref.Child])
			}
		}
	}
	return &StreamProgram{root: e.Target.Root, inv: progs[e.Source.Root]}, nil
}

// compile builds the type's path trie.
func (ip *invProd) compile() (*invNode, error) {
	root := &invNode{}
	switch ip.kind {
	case dtd.KindStr:
		end, err := root.chain(ip.edges[0].steps)
		if err != nil {
			return nil, err
		}
		end.kind = invText
	case dtd.KindConcat, dtd.KindDisj:
		for i, ed := range ip.edges {
			end, err := root.chain(ed.steps)
			if err != nil {
				return nil, err
			}
			if end.kind != invInner || len(end.kids) > 0 {
				return nil, fmt.Errorf("internal: path of edge %s is not prefix-free", ed.ref)
			}
			end.kind, end.leaf = invLeaf, i
		}
	case dtd.KindStar:
		steps := ip.edges[0].steps
		it := iteratorIndex(steps)
		end, err := root.chain(steps[:it])
		if err != nil {
			return nil, err
		}
		iter := &invNode{}
		tail, err := iter.chain(steps[it+1:])
		if err != nil {
			return nil, err
		}
		tail.kind = invLeaf
		end.kind, end.iterLabel, end.iter = invIter, steps[it].label, iter
	}
	return root, nil
}

// chain walks steps down from n, adding the missing edges, and returns
// the node the last step reaches.
func (n *invNode) chain(steps []resolvedStep) (*invNode, error) {
	for _, s := range steps {
		if s.occ == 0 {
			return nil, fmt.Errorf("internal: iterator step %q inside a path", s.label)
		}
		if n.kind != invInner {
			return nil, fmt.Errorf("internal: step %q below a path end", s.label)
		}
		next := n.edge(s.label, s.occ)
		if next == nil {
			slot := n.labels
			for _, k := range n.kids {
				if k.label == s.label {
					slot = k.slot
					break
				}
			}
			if slot == n.labels {
				n.labels++
			}
			next = &invNode{}
			n.kids = append(n.kids, invEdge{label: s.label, occ: s.occ, slot: slot, node: next})
		}
		n = next
	}
	return n, nil
}

// edge returns the node of edge (label, occ), or nil.
func (n *invNode) edge(label string, occ int) *invNode {
	for _, k := range n.kids {
		if k.label == label && k.occ == occ {
			return k.node
		}
	}
	return nil
}

// invState is the reconstruction state of one source node.
type invState struct {
	p *invProd
	// next is the first concatenation child not yet emitted; bufs holds
	// the buffered token runs of children that arrived before it.
	next     int
	bufs     [][]xmltree.Tok
	buffered int
	// chosen is the disjunct taken, -1 before one appears.
	chosen int
	// hit records that a path end was reached: the str text node, or a
	// star iteration's leaf.
	hit bool
	// text and textSet hold a str type's value.
	text    string
	textSet bool
}

// invErrf reports a target document that is not in the image of σd,
// phrased like InvertCtx's failures.
func invErrf(format string, args ...any) error {
	return &StreamError{Stage: "map", Err: fmt.Errorf("embedding: "+format, args...)}
}

// invert reconstructs the source node of type ip from the target
// element whose start tag (label) was just consumed, through its end
// tag, emitting the source subtree.
func (g *engine) invert(in tokenSource, ip *invProd, label string) error {
	if err := guard.CheckCtx(g.ctx, "embedding: invert"); err != nil {
		return &StreamError{Stage: "map", Err: err}
	}
	if err := g.emit.Start(ip.name); err != nil {
		return &StreamError{Stage: "write", Err: err}
	}
	st := invState{p: ip, chosen: -1}
	err := g.walk(in, &st, ip.root, label)
	g.buffered -= st.buffered
	if err != nil {
		return err
	}
	switch ip.kind {
	case dtd.KindStr:
		if !st.textSet {
			if st.hit {
				return invErrf("invert %s: target has no text", ip.name)
			}
			return invErrf("invert %s: no path %s under %q", ip.name, ip.paths[0], label)
		}
		if err := g.emit.Text(st.text); err != nil {
			return &StreamError{Stage: "write", Err: err}
		}
	case dtd.KindConcat:
		if st.next < len(ip.edges) {
			ed := ip.edges[st.next]
			return invErrf("invert edge %s: no path %s under %q", ed.ref, ip.paths[st.next], label)
		}
	case dtd.KindDisj:
		if st.chosen < 0 {
			return invErrf("invert %s: no disjunct path present under %q", ip.name, label)
		}
	}
	if err := g.emit.End(); err != nil {
		return &StreamError{Stage: "write", Err: err}
	}
	return nil
}

// walk consumes the children of the open target element at trie node n
// through the element's end tag.
func (g *engine) walk(in tokenSource, st *invState, n *invNode, label string) error {
	switch n.kind {
	case invLeaf:
		return g.leaf(in, st, n.leaf, label)
	case invIter:
		return g.iterate(in, st, n, label)
	case invText:
		st.hit = true
	}
	// Same-label children are counted per open element, as child()
	// does: one counter per distinct edge label, on a shared stack.
	base := len(g.counts)
	for i := 0; i < n.labels; i++ {
		g.counts = append(g.counts, 0)
	}
	err := g.route(in, st, n, base)
	g.counts = g.counts[:base]
	return err
}

// route reads the children of an inner or text node: trie edges
// descend, every other element is skipped, and text is kept only as a
// str type's value.
func (g *engine) route(in tokenSource, st *invState, n *invNode, base int) error {
	for {
		tok, err := g.next(in)
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltree.TokEnd:
			return nil
		case xmltree.TokText:
			if n.kind == invText && !st.textSet {
				st.text, st.textSet = tok.Text, true
			}
			continue
		case xmltree.TokEOF:
			return invErrf("invert: unexpected end of document")
		}
		var next *invNode
		for _, k := range n.kids {
			if k.label == tok.Name {
				g.counts[base+k.slot]++
				next = n.edge(tok.Name, g.counts[base+k.slot])
				break
			}
		}
		if next == nil {
			err = g.skip(in)
		} else {
			err = g.walk(in, st, next, tok.Name)
		}
		if err != nil {
			return err
		}
	}
}

// leaf handles the target node of source child i, whose start tag was
// just consumed.
func (g *engine) leaf(in tokenSource, st *invState, i int, label string) error {
	ip := st.p
	switch ip.kind {
	case dtd.KindDisj:
		if st.chosen >= 0 {
			return invErrf("invert %s: both %q and %q paths present", ip.name, ip.edges[st.chosen].ref.Child, ip.edges[i].ref.Child)
		}
		st.chosen = i
		return g.invert(in, ip.children[i], label)
	case dtd.KindStar:
		st.hit = true
		return g.invert(in, ip.children[0], label)
	}
	// Concatenation: emit in production order.
	if i != st.next {
		buf, n, err := g.collect(in, xmltree.Tok{Kind: xmltree.TokStart, Name: label})
		if err != nil {
			return err
		}
		if st.bufs == nil {
			st.bufs = make([][]xmltree.Tok, len(ip.edges))
			g.fallbacks++
		}
		st.bufs[i] = buf
		st.buffered += n
		return nil
	}
	if err := g.invert(in, ip.children[i], label); err != nil {
		return err
	}
	for st.next++; st.next < len(st.bufs) && st.bufs[st.next] != nil; st.next++ {
		buf := st.bufs[st.next]
		st.bufs[st.next] = nil
		if err := g.invert(&tokCursor{toks: buf, i: 1}, ip.children[st.next], buf[0].Name); err != nil {
			return err
		}
	}
	return nil
}

// iterate consumes the children of a star path's iterator parent: each
// must be an iterLabel element, and each is one source child.
func (g *engine) iterate(in tokenSource, st *invState, n *invNode, label string) error {
	for {
		tok, err := g.next(in)
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltree.TokEnd:
			return nil
		case xmltree.TokText:
			return invErrf("invert %s: unexpected %q under star node %q", st.p.name, xmltree.TextLabel, label)
		case xmltree.TokEOF:
			return invErrf("invert: unexpected end of document")
		}
		if tok.Name != n.iterLabel {
			return invErrf("invert %s: unexpected %q under star node %q", st.p.name, tok.Name, label)
		}
		st.hit = false
		if err := g.walk(in, st, n.iter, tok.Name); err != nil {
			return err
		}
		if !st.hit {
			return invErrf("invert %s: broken star suffix under %q", st.p.name, tok.Name)
		}
	}
}

// skip consumes the rest of an element whose start tag was just read.
func (g *engine) skip(in tokenSource) error {
	for depth := 1; depth > 0; {
		tok, err := g.next(in)
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltree.TokStart:
			depth++
		case xmltree.TokEnd:
			depth--
		case xmltree.TokEOF:
			return invErrf("invert: unexpected end of document")
		}
	}
	return nil
}
