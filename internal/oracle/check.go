package oracle

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/anfa"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xslt"
)

// checkTrial runs every property over the scenario and returns the
// violations found, with the scenario attached for shrinking and
// reporting.
func checkTrial(tr *Trial, rep *Report) []Violation {
	var out []Violation
	add := func(p Property, q xpath.Expr, v *Violation) {
		rep.Checks[p]++
		if v == nil {
			return
		}
		v.Property = p
		v.Source, v.Target, v.Emb = tr.Source, tr.Target, tr.Emb
		v.Doc, v.Query = tr.Doc, q
		out = append(out, *v)
	}
	for _, p := range []Property{PropTypeSafety, PropInvert, PropXSLTForward, PropXSLTInverse, PropStreamDiff, PropStreamInv} {
		p := p
		add(p, nil, guardPanic(func() *Violation {
			return checkProperty(p, tr, tr.Doc, nil)
		}))
	}
	for _, q := range tr.Queries {
		q := q
		nonEmpty := len(xpath.Eval(q, tr.Doc.Root)) > 0
		for _, p := range []Property{PropQueryPreserv, PropANFADiff, PropCompiledDiff, PropAnfaOpt} {
			p := p
			if nonEmpty {
				rep.NonTrivial[p]++
			}
			add(p, q, guardPanic(func() *Violation {
				return checkProperty(p, tr, tr.Doc, q)
			}))
		}
	}
	return out
}

// checkProperty evaluates one property on the scenario with the given
// document (and query, for query-driven properties). It is
// self-contained so the shrinker can replay it on candidate inputs.
func checkProperty(p Property, tr *Trial, doc *xmltree.Tree, q xpath.Expr) *Violation {
	switch p {
	case PropTypeSafety:
		return checkTypeSafety(tr, doc)
	case PropInvert:
		return checkInvert(tr, doc)
	case PropXSLTForward:
		return checkXSLTForward(tr, doc)
	case PropXSLTInverse:
		return checkXSLTInverse(tr, doc)
	case PropQueryPreserv:
		return checkQueryPreservation(tr, doc, q)
	case PropANFADiff:
		return checkANFADifferential(tr, doc, q)
	case PropCompiledDiff:
		return checkCompiledDifferential(tr, doc, q)
	case PropStreamDiff:
		return checkStreamDifferential(tr, doc)
	case PropAnfaOpt:
		return checkAnfaOptDifferential(tr, doc, q)
	case PropStreamInv:
		return checkStreamInverseDifferential(tr, doc)
	}
	return &Violation{Detail: fmt.Sprintf("unknown property %q", p)}
}

// checkStreamDifferential: the streaming engine computes exactly the
// tree path's σd, byte for byte — same output on conforming documents,
// including productions that take the buffered reorder fallback.
func checkStreamDifferential(tr *Trial, doc *xmltree.Tree) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed: %v", err)}
	}
	want := res.Tree.String()
	prog, err := tr.Emb.CompileStream()
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("compiling the streaming σd failed: %v", err)}
	}
	var out strings.Builder
	if _, err := prog.Run(context.Background(), strings.NewReader(doc.String()), &out, embedding.StreamOptions{}); err != nil {
		return &Violation{Detail: fmt.Sprintf("streaming σd failed on a conforming document: %v", err)}
	}
	if out.String() != want {
		return &Violation{Detail: fmt.Sprintf(
			"streaming output differs from the tree path:\nstream:\n%s\ntree:\n%s", out.String(), want)}
	}
	return nil
}

// checkStreamInverseDifferential: the streaming σd⁻¹ computes exactly
// the tree path's Invert, byte for byte, and its output conforms to the
// source schema. On targets outside the image of σd — σd(T) with a
// node dropped, two siblings swapped, a foreign element or a text node
// inserted, a subtree duplicated, or a label changed — both inverses
// fail, or both succeed with identical output.
func checkStreamInverseDifferential(tr *Trial, doc *xmltree.Tree) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed: %v", err)}
	}
	prog, err := tr.Emb.CompileStreamInverse()
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("compiling the streaming σd⁻¹ failed: %v", err)}
	}
	img := res.Tree.String()
	want, terr := treeInverse(tr, img)
	if terr != nil {
		return &Violation{Detail: fmt.Sprintf("σd⁻¹ failed on σd(T): %v", terr)}
	}
	got, serr := streamInverse(prog, img)
	if serr != nil {
		return &Violation{Detail: fmt.Sprintf("streaming σd⁻¹ failed on σd(T): %v", serr)}
	}
	if got != want {
		return &Violation{Detail: fmt.Sprintf(
			"streaming σd⁻¹ differs from the tree path:\nstream:\n%s\ntree:\n%s", got, want)}
	}
	back, err := xmltree.ParseString(got)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("streaming σd⁻¹ output does not parse: %v", err)}
	}
	if err := back.Validate(tr.Source); err != nil {
		return &Violation{Detail: fmt.Sprintf("streaming σd⁻¹ output does not conform to the source schema: %v", err)}
	}
	// The mutations are drawn from the image itself, so a shrunk
	// document replays its own mutations.
	h := fnv.New64a()
	h.Write([]byte(img))
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	for i := 0; i < 4; i++ {
		mut := mutateTarget(r, res.Tree, tr.Target)
		want, terr := treeInverse(tr, mut)
		got, serr := streamInverse(prog, mut)
		if (terr == nil) != (serr == nil) {
			return &Violation{Detail: fmt.Sprintf(
				"inverses disagree on a mutated target: tree err = %v, stream err = %v\ntarget:\n%s", terr, serr, mut)}
		}
		if terr == nil && got != want {
			return &Violation{Detail: fmt.Sprintf(
				"inverses differ on a mutated target:\ntarget:\n%s\nstream:\n%s\ntree:\n%s", mut, got, want)}
		}
	}
	return nil
}

// treeInverse is the tree path's σd⁻¹ on a serialized target: parse,
// Invert, source validation, serialize.
func treeInverse(tr *Trial, target string) (string, error) {
	t, err := xmltree.ParseString(target)
	if err != nil {
		return "", err
	}
	back, err := tr.Emb.Invert(t)
	if err != nil {
		return "", err
	}
	if err := back.Validate(tr.Source); err != nil {
		return "", err
	}
	return back.String(), nil
}

func streamInverse(prog *embedding.StreamProgram, target string) (string, error) {
	var out strings.Builder
	_, err := prog.Run(context.Background(), strings.NewReader(target), &out, embedding.StreamOptions{})
	return out.String(), err
}

// mutateTarget serializes a copy of t with one random edit.
func mutateTarget(r *rand.Rand, t *xmltree.Tree, target *dtd.DTD) string {
	c := t.Clone()
	var elems []*xmltree.Node
	c.Walk(func(n *xmltree.Node) {
		if !n.IsText() {
			elems = append(elems, n)
		}
	})
	n := elems[r.Intn(len(elems))]
	switch r.Intn(6) {
	case 0: // drop a child
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
		}
	case 1: // swap two siblings
		if k := len(n.Children); k > 1 {
			i, j := r.Intn(k), r.Intn(k)
			n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
		}
	case 2: // insert a foreign element
		insertAt(r, n, c.NewElement("zzforeign"))
	case 3: // insert a text node
		insertAt(r, n, c.NewText("stray"))
	case 4: // duplicate a child subtree
		if len(n.Children) > 0 {
			dup := (&xmltree.Tree{Root: n.Children[r.Intn(len(n.Children))]}).Clone().Root
			insertAt(r, n, dup)
		}
	case 5: // relabel to another target type
		if n.Parent != nil {
			n.Label = target.Types[r.Intn(len(target.Types))]
		}
	}
	return c.String()
}

// insertAt inserts child among n's children at a random position.
func insertAt(r *rand.Rand, n, child *xmltree.Node) {
	i := r.Intn(len(n.Children) + 1)
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = child
	child.Parent = n
}

// checkTypeSafety: σd is total on conforming documents and its image
// conforms to the target schema (Theorem 4.1).
func checkTypeSafety(tr *Trial, doc *xmltree.Tree) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed on a conforming document: %v", err)}
	}
	if err := res.Tree.Validate(tr.Target); err != nil {
		return &Violation{Detail: fmt.Sprintf("σd(T) does not conform to the target schema: %v", err)}
	}
	return nil
}

// checkInvert: σd⁻¹(σd(T)) is value-isomorphic to T (Theorem 4.1).
func checkInvert(tr *Trial, doc *xmltree.Tree) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed: %v", err)}
	}
	back, err := tr.Emb.Invert(res.Tree)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd⁻¹ failed on σd(T): %v", err)}
	}
	if !xmltree.Equal(back, doc) {
		return &Violation{Detail: "σd⁻¹(σd(T)) differs from T: " + xmltree.Diff(back, doc)}
	}
	return nil
}

// checkXSLTForward: the generated forward stylesheet computes σd.
func checkXSLTForward(tr *Trial, doc *xmltree.Tree) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed: %v", err)}
	}
	sheet, err := xslt.ForwardStylesheet(tr.Emb)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("forward stylesheet generation failed: %v", err)}
	}
	got, err := sheet.Run(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("forward stylesheet run failed: %v", err)}
	}
	if !xmltree.Equal(got, res.Tree) {
		return &Violation{Detail: "XSLT forward output differs from programmatic σd(T): " + xmltree.Diff(got, res.Tree)}
	}
	return nil
}

// checkXSLTInverse: the generated inverse stylesheet recovers T from
// σd(T).
func checkXSLTInverse(tr *Trial, doc *xmltree.Tree) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed: %v", err)}
	}
	sheet, err := xslt.InverseStylesheet(tr.Emb)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("inverse stylesheet generation failed: %v", err)}
	}
	got, err := sheet.Run(res.Tree)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("inverse stylesheet run failed: %v", err)}
	}
	if !xmltree.Equal(got, doc) {
		return &Violation{Detail: "XSLT inverse output differs from T: " + xmltree.Diff(got, doc)}
	}
	return nil
}

// checkQueryPreservation: Q(T) = idM(Tr(Q)(σd(T))) (Theorem 4.2). The
// translated automaton must select exactly the images of Q's answers
// and never a default-fill node.
func checkQueryPreservation(tr *Trial, doc *xmltree.Tree, q xpath.Expr) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed: %v", err)}
	}
	trl, err := translate.New(tr.Emb)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("translator construction failed: %v", err)}
	}
	auto, err := trl.Translate(q)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("translation failed: %v", err)}
	}
	want, got := xpath.Eval(q, doc.Root), auto.EvalInterpreted(res.Tree.Root)
	if err := res.Preserves(want, got); err != nil {
		return &Violation{Detail: fmt.Sprintf("answer mismatch: Q(T) = %v, Tr(Q)(σd(T)) = %v: %v",
			idSet(xpath.IDs(want)), idSet(xpath.IDs(got)), err)}
	}
	return nil
}

// checkCompiledDifferential: the compiled evaluation plan agrees with
// the reference tree-walking interpreter on the source document —
// same answer nodes, same first-reached order (a stronger contract
// than the set semantics the other differentials check, because Eval
// is now a thin wrapper over the compiled path and callers observe
// its order).
func checkCompiledDifferential(tr *Trial, doc *xmltree.Tree, q xpath.Expr) *Violation {
	want := xpath.EvalInterpreted(q, doc.Root)
	got := xpath.Compile(q).Run(doc.Root)
	if len(want) != len(got) {
		return &Violation{Detail: fmt.Sprintf(
			"compiled evaluation disagrees with the interpreter: %d vs %d answers (interpreted = %v, compiled = %v)",
			len(want), len(got), xpath.IDs(want), xpath.IDs(got))}
	}
	for i := range want {
		if want[i] != got[i] {
			return &Violation{Detail: fmt.Sprintf(
				"compiled evaluation order diverges at position %d: interpreted = %v, compiled = %v",
				i, xpath.IDs(want), xpath.IDs(got))}
		}
	}
	return nil
}

// checkAnfaOptDifferential: the schema-aware optimizer and the
// compiled ANFA backend preserve the translated query's answer set on
// σd(T) — the raw (unoptimized, interpreted) translation, the
// optimized interpreted automaton and the optimized compiled program
// all select the same nodes. The optimizer is only contracted to
// preserve the answer set; the compiled program must in addition
// return the interpreter's answers in the same order, because
// Automaton.Eval runs it and its callers observe that order.
func checkAnfaOptDifferential(tr *Trial, doc *xmltree.Tree, q xpath.Expr) *Violation {
	res, err := tr.Emb.Apply(doc)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("σd failed: %v", err)}
	}
	raw, rerr := translateWith(tr.Emb, q, translate.Options{NoOptimize: true})
	opt, oerr := translateWith(tr.Emb, q, translate.Options{})
	if (rerr == nil) != (oerr == nil) {
		return &Violation{Detail: fmt.Sprintf(
			"optimizer changed translatability: raw err = %v, optimized err = %v", rerr, oerr)}
	}
	if rerr != nil {
		return nil // both fail identically upstream; PropQueryPreserv reports it
	}
	want := idSet(xpath.IDs(raw.EvalInterpreted(res.Tree.Root)))
	interp := opt.EvalInterpreted(res.Tree.Root)
	if gotEval := idSet(xpath.IDs(interp)); !idSetsEqual(want, gotEval) {
		return &Violation{Detail: fmt.Sprintf(
			"optimized automaton disagrees with the raw translation on σd(T): raw = %v, optimized = %v (states %d -> %d)",
			want, gotEval, raw.NumStates(), opt.NumStates())}
	}
	prog := opt.Program().Run(res.Tree.Root)
	if !slices.Equal(prog, interp) {
		return &Violation{Detail: fmt.Sprintf(
			"compiled program disagrees with the interpreter on σd(T): interpreted = %v, compiled = %v",
			xpath.IDs(interp), xpath.IDs(prog))}
	}
	return nil
}

// translateWith translates q under explicit options with a fresh
// translator, so the optimized and unoptimized artifacts never share
// state.
func translateWith(emb *embedding.Embedding, q xpath.Expr, opts translate.Options) (*anfa.Automaton, error) {
	trl, err := translate.NewWithOptions(emb, opts)
	if err != nil {
		return nil, err
	}
	return trl.Translate(q)
}

// checkANFADifferential: the automaton M_Q built directly from Q by
// anfa.FromExpr agrees with the reference X_R evaluator on the source
// document.
func checkANFADifferential(tr *Trial, doc *xmltree.Tree, q xpath.Expr) *Violation {
	dq := xpath.DesugarDesc(q, tr.Source.Types)
	auto, err := anfa.FromExpr(dq)
	if err != nil {
		return &Violation{Detail: fmt.Sprintf("ANFA construction failed: %v", err)}
	}
	direct := idSet(xpath.IDs(xpath.Eval(dq, doc.Root)))
	viaANFA := idSet(xpath.IDs(auto.EvalInterpreted(doc.Root)))
	if !idSetsEqual(direct, viaANFA) {
		return &Violation{Detail: fmt.Sprintf(
			"ANFA evaluation disagrees with direct evaluation: direct = %v, anfa = %v", direct, viaANFA)}
	}
	return nil
}
