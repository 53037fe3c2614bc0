package embedding

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dtd"
	"repro/internal/xpath"
)

// StrChild is the pseudo child name identifying the str edge of a
// source type with production A -> str: path(A, str) is stored under
// EdgeRef{Parent: A, Child: StrChild, Occ: 1}.
const StrChild = "#str"

// EdgeRef identifies an edge of the source schema graph: the Occ-th
// occurrence of Child among Parent's children (occurrences matter for
// concatenations repeating a type; otherwise Occ is 1).
type EdgeRef struct {
	Parent string
	Child  string
	Occ    int
}

// Ref builds an EdgeRef with Occ = 1.
func Ref(parent, child string) EdgeRef { return EdgeRef{Parent: parent, Child: child, Occ: 1} }

func (r EdgeRef) String() string {
	if r.Occ > 1 {
		return fmt.Sprintf("(%s, %s#%d)", r.Parent, r.Child, r.Occ)
	}
	return fmt.Sprintf("(%s, %s)", r.Parent, r.Child)
}

// Embedding is a path mapping σ = (λ, path) from Source to Target
// (§4.1). Lambda maps every source element type to a target type with
// Lambda[Source.Root] = Target.Root; Paths maps every source edge
// (including str edges) to an X_R path in the target relative to
// λ(parent).
//
// Call Validate before deriving instance mappings; Apply and Invert
// validate lazily and reject invalid embeddings. What is derived from
// σ (the resolved paths and the σd/σd⁻¹ stream programs) is computed
// once and kept until SetPath or MapType changes the embedding; a
// validated embedding that is no longer changed is safe for
// concurrent use.
type Embedding struct {
	Source *dtd.DTD
	Target *dtd.DTD
	Lambda map[string]string
	Paths  map[EdgeRef]xpath.Path

	resolved map[EdgeRef][]resolvedStep
	// edges lists each source type's resolved child edges in
	// production order, so the inverse walks a production without
	// numbering occurrences or hashing EdgeRefs. Set with resolved.
	edges map[string][]resolvedEdge

	// fwd and inv memoize CompileStream and CompileStreamInverse.
	// Atomic pointers rather than plain fields so concurrent compiles
	// on a validated (immutable) embedding stay race-free; mutators
	// reset them alongside resolved, and a failed compile stores
	// nothing.
	fwd, inv atomic.Pointer[StreamProgram]
}

// New returns an embedding shell with empty λ and path maps.
func New(source, target *dtd.DTD) *Embedding {
	return &Embedding{
		Source: source,
		Target: target,
		Lambda: make(map[string]string),
		Paths:  make(map[EdgeRef]xpath.Path),
	}
}

// SetPath records path(ref) = p (given in textual X_R path form) and
// returns the embedding for chaining. It panics on a malformed path
// string; it does not validate the path against the schemas (Validate
// does).
func (e *Embedding) SetPath(ref EdgeRef, path string) *Embedding {
	e.Paths[ref] = xpath.MustParsePath(path)
	e.reset()
	return e
}

// MapType records λ(a) = b.
func (e *Embedding) MapType(a, b string) *Embedding {
	e.Lambda[a] = b
	e.reset()
	return e
}

// reset drops everything derived from λ and the paths, so the next
// use re-resolves and recompiles.
func (e *Embedding) reset() {
	e.resolved, e.edges = nil, nil
	e.fwd.Store(nil)
	e.inv.Store(nil)
}

// Quality is qual(σ, att): the sum of att(A, λ(A)) over source types
// (§4.1, Embedding Quality).
func (e *Embedding) Quality(att *SimMatrix) float64 {
	q := 0.0
	for _, a := range e.Source.Types {
		q += att.Get(a, e.Lambda[a])
	}
	return q
}

// SourceEdges lists every edge of the source schema that the embedding
// must map: the graph edges plus one str edge per str production.
func SourceEdges(s *dtd.DTD) []EdgeRef {
	var refs []EdgeRef
	for _, a := range s.Types {
		p := s.Prods[a]
		if p.Kind == dtd.KindStr {
			refs = append(refs, EdgeRef{Parent: a, Child: StrChild, Occ: 1})
			continue
		}
		for _, ed := range s.ChildEdges(a) {
			refs = append(refs, EdgeRef{Parent: a, Child: ed.To, Occ: ed.Occ})
		}
	}
	return refs
}

// resolvedStep is a canonical step of an embedded path: the label of
// the step, the kind of the target edge it traverses, and how the step
// selects among same-label siblings.
type resolvedStep struct {
	label string
	kind  dtd.EdgeKind
	// occ is the 1-based occurrence among same-label children. occ == 0
	// marks the iterator step of a star-source path: at instance level
	// it expands to one sibling per source child.
	occ int
	// childIdx is the 0-based index among all children of the parent's
	// production for AND edges; -1 otherwise.
	childIdx int
	// needsPos records whether instance-level navigation must check the
	// occurrence: true for AND steps whose label repeats in the parent
	// production and for pinned STAR steps.
	needsPos bool
}

// PathStep is the exported view of a resolved path step, consumed by
// schema-directed query translation.
type PathStep struct {
	// Label is the element tag of the step.
	Label string
	// Kind is the target edge kind the step traverses.
	Kind dtd.EdgeKind
	// Occ selects the Occ-th same-label child; 0 marks the iterator
	// step of a star-source path (one sibling per source child).
	Occ int
	// NeedsPos reports whether navigation must check Occ (the label is
	// ambiguous among siblings at this step).
	NeedsPos bool
}

// ResolvedSteps returns the canonical steps of the path mapped from the
// given source edge, validating the embedding's paths on first use.
func (e *Embedding) ResolvedSteps(ref EdgeRef) ([]PathStep, error) {
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	steps, ok := e.resolved[ref]
	if !ok {
		return nil, fmt.Errorf("embedding: no path for source edge %s", ref)
	}
	out := make([]PathStep, len(steps))
	for i, s := range steps {
		out[i] = PathStep{Label: s.label, Kind: s.kind, Occ: s.occ, NeedsPos: s.needsPos}
	}
	return out, nil
}

func (s resolvedStep) slot() slotKey { return slotKey{label: s.label, occ: s.occ} }

// slotKey identifies a child slot within a production fragment: nodes
// inserted by different paths merge exactly when their slot sequences
// coincide. Iterator steps receive per-child occ values at instance
// time and therefore never merge across source children.
type slotKey struct {
	label string
	occ   int
}

// Validate checks that σ is a valid schema embedding w.r.t. att
// (§4.1): λ is total with λ(r1) = r2 and att(A, λ(A)) > 0; every source
// edge is mapped to a path of the right type (AND path for
// concatenation and str edges, OR path for disjunction edges, STAR path
// for star edges, with str paths ending in text()); and sibling paths
// are mutually prefix free. A nil att imposes no similarity
// restriction.
func (e *Embedding) Validate(att *SimMatrix) error {
	if err := e.validateLambda(att); err != nil {
		return err
	}
	return e.ensureResolved()
}

func (e *Embedding) validateLambda(att *SimMatrix) error {
	if e.Lambda[e.Source.Root] != e.Target.Root {
		return fmt.Errorf("embedding: λ(%s) = %q, must be the target root %q",
			e.Source.Root, e.Lambda[e.Source.Root], e.Target.Root)
	}
	for _, a := range e.Source.Types {
		b, ok := e.Lambda[a]
		if !ok {
			return fmt.Errorf("embedding: λ is not total: source type %q unmapped", a)
		}
		if _, ok := e.Target.Prods[b]; !ok {
			return fmt.Errorf("embedding: λ(%s) = %q is not a target type", a, b)
		}
		if att != nil && att.Get(a, b) <= 0 {
			return fmt.Errorf("embedding: invalid w.r.t. att: att(%s, %s) = 0", a, b)
		}
	}
	return nil
}

// ensureResolved resolves and type-checks every edge path and proves
// sibling paths prefix free, caching the canonical steps. A failure
// caches nothing, so the next call reports it again.
func (e *Embedding) ensureResolved() error {
	if e.resolved != nil {
		return nil
	}
	res := make(map[EdgeRef][]resolvedStep)
	edges := make(map[string][]resolvedEdge, len(e.Source.Types))
	for _, ref := range SourceEdges(e.Source) {
		p, ok := e.Paths[ref]
		if !ok {
			return fmt.Errorf("embedding: no path for source edge %s", ref)
		}
		steps, err := e.resolvePath(ref, p)
		if err != nil {
			return err
		}
		res[ref] = steps
		edges[ref.Parent] = append(edges[ref.Parent], resolvedEdge{ref: ref, steps: steps})
	}
	if err := e.checkPrefixFreedom(res); err != nil {
		return err
	}
	e.resolved, e.edges = res, edges
	return nil
}

// resolvedEdge is one source edge with its resolved path.
type resolvedEdge struct {
	ref   EdgeRef
	steps []resolvedStep
}

// resolvePath walks the path through the target schema from λ(parent),
// canonicalizing positions and enforcing the path type condition for
// the source production kind.
func (e *Embedding) resolvePath(ref EdgeRef, p xpath.Path) ([]resolvedStep, error) {
	srcProd := e.Source.Prods[ref.Parent]
	start := e.Lambda[ref.Parent]
	fail := func(format string, args ...any) error {
		return fmt.Errorf("embedding: path(%s) = %q: %s", ref, p, fmt.Sprintf(format, args...))
	}

	if ref.Child == StrChild {
		if srcProd.Kind != dtd.KindStr {
			return nil, fail("str path on non-str source type")
		}
		if !p.Text {
			return nil, fail("str edge must map to an AND path ending with text()")
		}
	} else {
		if p.Text {
			return nil, fail("element edge must not map to a text() path")
		}
		if len(p.Steps) == 0 {
			return nil, fail("element edge needs a nonempty path")
		}
	}

	steps := make([]resolvedStep, 0, len(p.Steps))
	cur := start
	sawOR, sawSTAR := false, false
	iterator := -1
	for i, s := range p.Steps {
		prod, ok := e.Target.Prods[cur]
		if !ok {
			return nil, fail("internal: undefined target type %q", cur)
		}
		rs := resolvedStep{label: s.Label, childIdx: -1}
		switch prod.Kind {
		case dtd.KindConcat:
			n := prod.Occurrences(s.Label)
			if n == 0 {
				return nil, fail("step %d: %q is not a child of target type %q", i+1, s.Label, cur)
			}
			occ := s.Pos
			if occ == 0 {
				if n > 1 {
					return nil, fail("step %d: %q occurs %d times under %q; a position qualifier is required", i+1, s.Label, n, cur)
				}
				occ = 1
			} else if occ > n {
				return nil, fail("step %d: position %d exceeds the %d occurrences of %q under %q", i+1, occ, n, s.Label, cur)
			}
			rs.kind = dtd.EdgeAND
			rs.occ = occ
			rs.childIdx = prod.ChildIndex(s.Label, occ)
			rs.needsPos = n > 1
		case dtd.KindDisj:
			found := false
			for _, c := range prod.Children {
				if c == s.Label {
					found = true
					break
				}
			}
			if !found {
				return nil, fail("step %d: %q is not a disjunct of target type %q", i+1, s.Label, cur)
			}
			if s.Pos > 1 {
				return nil, fail("step %d: position %d on a disjunction step", i+1, s.Pos)
			}
			rs.kind = dtd.EdgeOR
			rs.occ = 1
			sawOR = true
		case dtd.KindStar:
			if prod.Children[0] != s.Label {
				return nil, fail("step %d: %q is not the star child of target type %q", i+1, s.Label, cur)
			}
			rs.kind = dtd.EdgeSTAR
			sawSTAR = true
			switch {
			case srcProd.Kind == dtd.KindStar && iterator < 0 && s.Pos == 0:
				// The iterator: expands to one sibling per source child.
				rs.occ = 0
				iterator = i
			case s.Pos > 0:
				rs.occ = s.Pos
				rs.needsPos = true
			default:
				// Unpinned star step in a non-iterator role defaults to
				// the first child.
				rs.occ = 1
				rs.needsPos = true
			}
		default:
			return nil, fail("step %d: target type %q (%s) has no element children", i+1, cur, prod.Kind)
		}
		steps = append(steps, rs)
		cur = s.Label
	}

	// Endpoint and path-type conditions per the source production.
	switch srcProd.Kind {
	case dtd.KindStr:
		if sawOR {
			return nil, fail("str edge requires an AND path; the path crosses an OR edge")
		}
		if prod := e.Target.Prods[cur]; prod.Kind != dtd.KindStr {
			return nil, fail("str path must end at a str-typed target element, ends at %q (%s)", cur, prod.Kind)
		}
	case dtd.KindConcat:
		if sawOR {
			return nil, fail("concatenation edge requires an AND path; the path crosses an OR edge")
		}
	case dtd.KindDisj:
		if !sawOR {
			return nil, fail("disjunction edge requires an OR path (at least one OR edge)")
		}
		if sawSTAR {
			return nil, fail("disjunction edge requires an OR path; the path crosses a STAR edge")
		}
	case dtd.KindStar:
		if sawOR {
			return nil, fail("star edge requires a STAR path; the path crosses an OR edge")
		}
		if !sawSTAR {
			return nil, fail("star edge requires a STAR path (at least one STAR edge)")
		}
		if iterator < 0 {
			return nil, fail("star path pins every star step with a position; the first star step must be unpinned to iterate source children")
		}
	}
	if ref.Child != StrChild {
		want := e.Lambda[ref.Child]
		if cur != want {
			return nil, fail("path ends at %q, want λ(%s) = %q", cur, ref.Child, want)
		}
	}
	return steps, nil
}

// checkPrefixFreedom enforces, per source production, that no sibling
// edge's resolved path is a prefix of another's (the prefix-free
// condition; equal paths conflict too). Star and str productions have a
// single edge, so only concatenations and disjunctions are checked.
//
// For disjunction sources it additionally requires sibling paths to
// diverge at an OR edge of the target. The paper's definition demands
// only prefix-freeness, but without divergence at an OR edge the
// instance mapping's minimum-default fills can alias the absent
// disjunct's path and break invertibility; every example in the paper
// (and its XSLT inverse templates, whose match guards are the
// disjunct paths) satisfies the stronger condition.
func (e *Embedding) checkPrefixFreedom(res map[EdgeRef][]resolvedStep) error {
	for _, a := range e.Source.Types {
		p := e.Source.Prods[a]
		if p.Kind != dtd.KindConcat && p.Kind != dtd.KindDisj {
			continue
		}
		refs := make([]EdgeRef, 0, len(p.Children))
		for _, ed := range e.Source.ChildEdges(a) {
			refs = append(refs, EdgeRef{Parent: a, Child: ed.To, Occ: ed.Occ})
		}
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				si, sj := res[refs[i]], res[refs[j]]
				div, pref := divergence(si, sj)
				if pref {
					return fmt.Errorf("embedding: prefix-free condition violated: path%s = %q and path%s = %q",
						refs[i], e.Paths[refs[i]], refs[j], e.Paths[refs[j]])
				}
				if p.Kind == dtd.KindDisj && si[div].kind != dtd.EdgeOR {
					return fmt.Errorf("embedding: disjunct paths path%s = %q and path%s = %q diverge at a non-OR edge; the absent disjunct would be indistinguishable from default fills",
						refs[i], e.Paths[refs[i]], refs[j], e.Paths[refs[j]])
				}
			}
		}
	}
	return nil
}

// divergence returns the index of the first differing slot of the two
// resolved paths; pref is true when one path is a prefix of the other
// (in which case div is meaningless).
func divergence(a, b []resolvedStep) (div int, pref bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].slot() != b[i].slot() {
			return i, false
		}
	}
	return 0, true
}

// PathSize returns |σ|: the total number of steps across all mapped
// paths, the size measure in the paper's complexity bounds.
func (e *Embedding) PathSize() int {
	n := 0
	for _, p := range e.Paths {
		n += p.Len()
		if p.Text {
			n++
		}
	}
	return n
}

// String renders the embedding in the paper's notation.
func (e *Embedding) String() string {
	var b strings.Builder
	types := append([]string(nil), e.Source.Types...)
	sort.Strings(types)
	for _, a := range types {
		fmt.Fprintf(&b, "λ(%s) = %s\n", a, e.Lambda[a])
	}
	refs := SourceEdges(e.Source)
	for _, ref := range refs {
		if p, ok := e.Paths[ref]; ok {
			fmt.Fprintf(&b, "path%s = %s\n", ref, p)
		}
	}
	return b.String()
}

// ResolvedKinds exposes, for diagnostics and tests, the edge kinds the
// path of ref traverses in the target schema, validating the
// embedding's paths on first use.
func (e *Embedding) ResolvedKinds(ref EdgeRef) ([]dtd.EdgeKind, error) {
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	steps := e.resolved[ref]
	kinds := make([]dtd.EdgeKind, len(steps))
	for i, s := range steps {
		kinds[i] = s.kind
	}
	return kinds, nil
}
