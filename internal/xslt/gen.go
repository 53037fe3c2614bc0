package xslt

import (
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/xpath"
)

// ForwardStylesheet compiles a valid schema embedding into an XSLT
// stylesheet computing the instance mapping σd (§4.3, "An XSLT Template
// for σd"). It renders the embedding's compiled σd program, so each
// rule's output is the production fragment InstMap and the stream
// engine build, with apply-templates at its holes: one rule per
// concatenation/str/ε source type, one rule per disjunct of each
// disjunction type (guarded by the presence of that child), and a
// prefix/suffix rule pair per star type, with minimum default instances
// inlined as literal output.
func ForwardStylesheet(emb *embedding.Embedding) (*Stylesheet, error) {
	if err := emb.Validate(nil); err != nil {
		return nil, err
	}
	prog, err := emb.CompileStream()
	if err != nil {
		return nil, err
	}
	sheet := &Stylesheet{}
	for _, a := range emb.Source.Types {
		prod := emb.Source.Prods[a]
		frags, _ := prog.Fragments(a) // CompileStream compiled every source type
		switch prod.Kind {
		case dtd.KindDisj:
			// One guarded rule per disjunct (§4.3 case 2 / Example 4.6).
			for _, b := range prod.Children {
				var out outBuilder
				out.frag(frags.Variant(b), func(int) *Out { return ApplyTemplates(xpath.Label{Name: b}, "") })
				sheet.Add(&Template{Match: Pattern{Label: a, Guard: xpath.NewPath(b)}, Output: out.top})
			}

		case dtd.KindStar:
			// Prefix and suffix rules (§4.3 case 3 / Example 4.6's db):
			// the main rule hands every child to the moded rule, which
			// builds one iteration with the child itself at its hole.
			b, mode := prod.Children[0], "M-"+a
			prefix, segment, suffix := frags.Star()
			var main, iter outBuilder
			main.frag(prefix, nil)
			main.add(ApplyTemplates(xpath.Label{Name: b}, mode))
			main.frag(suffix, nil)
			iter.frag(segment, func(int) *Out { return ApplyTemplates(xpath.Empty{}, "") })
			sheet.Add(&Template{Match: Pattern{Label: a}, Output: main.top})
			sheet.Add(&Template{Match: Pattern{Label: b}, Mode: mode, Output: iter.top})

		default:
			var out outBuilder
			out.frag(frags.Frag(), func(i int) *Out { return ApplyTemplates(childSelect(prod.Children, i), "") })
			sheet.Add(&Template{Match: Pattern{Label: a}, Output: out.top})
		}
	}
	// The final rule copies text nodes (§4.3).
	sheet.Add(&Template{Match: Pattern{Text: true}, Output: []*Out{{CopyText: true}}})
	return sheet, nil
}

// childSelect selects the i-th child of a concatenation: its label,
// pinned to its occurrence when the label repeats.
func childSelect(children []string, i int) xpath.Expr {
	b := children[i]
	occ, repeats := 0, 0
	for j, c := range children {
		if c == b {
			repeats++
			if j <= i {
				occ++
			}
		}
	}
	if repeats > 1 {
		return xpath.Filter{P: xpath.Label{Name: b}, Q: xpath.QPos{K: occ}}
	}
	return xpath.Label{Name: b}
}

// outBuilder rebuilds an output forest from compiled fragment ops.
type outBuilder struct {
	top, open []*Out
}

func (o *outBuilder) add(n *Out) {
	if len(o.open) == 0 {
		o.top = append(o.top, n)
		return
	}
	p := o.open[len(o.open)-1]
	p.Children = append(p.Children, n)
}

// frag renders the ops of f: start/end tags and static text become
// literal output, the text hole selects text(), and hole renders each
// source-child hole.
func (o *outBuilder) frag(f embedding.Fragment, hole func(int) *Out) {
	for i := 0; i < f.Len(); i++ {
		code, str, arg := f.Op(i)
		switch code {
		case embedding.OpStart:
			n := &Out{Label: str}
			o.add(n)
			o.open = append(o.open, n)
		case embedding.OpEnd:
			o.open = o.open[:len(o.open)-1]
		case embedding.OpText:
			o.add(Literal(str))
		case embedding.OpTextHole:
			o.add(ApplyTemplates(xpath.Text{}, ""))
		case embedding.OpChild:
			o.add(hole(arg))
		}
	}
}

// InverseStylesheet compiles the embedding into a stylesheet computing
// σd⁻¹ (§4.3, "An XSLT Template for σd⁻¹"): one rule per source type,
// matching its λ image and selecting each child's embedded path.
// Deviating from the paper's single MDATA mode, each source type gets
// its own mode ("inv-<type>"), which keeps rule selection unambiguous
// even when λ maps several source types to one target type.
func InverseStylesheet(emb *embedding.Embedding) (*Stylesheet, error) {
	if err := emb.Validate(nil); err != nil {
		return nil, err
	}
	sheet := &Stylesheet{}
	// Bootstrap: hand the target root to the root type's mode.
	sheet.Add(&Template{
		Match:  Pattern{Label: emb.Target.Root},
		Output: []*Out{ApplyTemplates(xpath.Empty{}, invMode(emb.Source.Root))},
	})
	for _, a := range emb.Source.Types {
		if err := inverseRules(sheet, emb, a); err != nil {
			return nil, err
		}
	}
	sheet.Add(&Template{Match: Pattern{Text: true}, Mode: "inv-text", Output: []*Out{{CopyText: true}}})
	return sheet, nil
}

func invMode(a string) string { return "inv-" + a }

func inverseRules(sheet *Stylesheet, emb *embedding.Embedding, a string) error {
	prod := emb.Source.Prods[a]
	lam := emb.Lambda[a]
	switch prod.Kind {
	case dtd.KindEmpty:
		sheet.Add(&Template{Match: Pattern{Label: lam}, Mode: invMode(a), Output: []*Out{Element(a)}})

	case dtd.KindStr:
		p, err := stepPath(emb, embedding.Ref(a, embedding.StrChild))
		if err != nil {
			return err
		}
		sheet.Add(&Template{
			Match:  Pattern{Label: lam},
			Mode:   invMode(a),
			Output: []*Out{Element(a, ApplyTemplates(p.Expr(), "inv-text"))},
		})

	case dtd.KindConcat:
		var kids []*Out
		occ := map[string]int{}
		for _, b := range prod.Children {
			occ[b]++
			p, err := stepPath(emb, embedding.EdgeRef{Parent: a, Child: b, Occ: occ[b]})
			if err != nil {
				return err
			}
			kids = append(kids, ApplyTemplates(p.Expr(), invMode(b)))
		}
		sheet.Add(&Template{Match: Pattern{Label: lam}, Mode: invMode(a), Output: []*Out{Element(a, kids...)}})

	case dtd.KindDisj:
		for _, b := range prod.Children {
			guard, err := stepPath(emb, embedding.Ref(a, b))
			if err != nil {
				return err
			}
			sheet.Add(&Template{
				Match:  Pattern{Label: lam, Guard: guard},
				Mode:   invMode(a),
				Output: []*Out{Element(a, ApplyTemplates(guard.Expr(), invMode(b)))},
			})
		}

	case dtd.KindStar:
		b := prod.Children[0]
		p, err := stepPath(emb, embedding.Ref(a, b))
		if err != nil {
			return err
		}
		sheet.Add(&Template{
			Match:  Pattern{Label: lam},
			Mode:   invMode(a),
			Output: []*Out{Element(a, ApplyTemplates(p.Expr(), invMode(b)))},
		})
	}
	return nil
}

// stepPath converts the resolved path of an edge into an X_R path, a
// match guard as it stands and a select expression through Expr. Steps
// are pinned by position wherever navigation is ambiguous; iterator
// steps stay unpinned so that star paths select every child in order.
func stepPath(emb *embedding.Embedding, ref embedding.EdgeRef) (xpath.Path, error) {
	steps, err := emb.ResolvedSteps(ref)
	if err != nil {
		return xpath.Path{}, err
	}
	var p xpath.Path
	for _, s := range steps {
		st := xpath.Step{Label: s.Label}
		if s.NeedsPos {
			st.Pos = s.Occ
		}
		p.Steps = append(p.Steps, st)
	}
	if ref.Child == embedding.StrChild {
		p.Text = true
	}
	return p, nil
}
