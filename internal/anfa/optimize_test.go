package anfa_test

import (
	"testing"

	"repro/internal/anfa"
	"repro/internal/dtd"
	"repro/internal/xpath"
)

// TestOptimizeDifferential checks the optimizer and the compiled
// backend against the interpreted, unoptimized baseline: on every
// query the three selections must be identical as ID sets, and the
// optimizer must never grow the automaton.
func TestOptimizeDifferential(t *testing.T) {
	tr := doc(t, `<r><a>x</a><a>y</a><b><a>z</a><c/></b><b><c><a>w</a></c></b></r>`)
	queries := []string{
		".",
		"a",
		"b/a",
		"a | b",
		"a/text()",
		"(a | b)*",
		"(a | b/c)*/a",
		"b[a]",
		"b[not(zz)]",
		"b[c[a]]",
		"a[text() = \"y\"]",
		"a[position() = 2]",
		"b/a[position() = 1]",
		"(a/text()) | (b/c)",
		"(b | b/c)*[a]/a",
	}
	for _, src := range queries {
		q := xpath.MustParse(src)
		base, err := anfa.FromExpr(q)
		if err != nil {
			t.Fatalf("FromExpr(%q): %v", src, err)
		}
		want := base.EvalInterpreted(tr.Root)

		opt := base.Clone()
		st := anfa.Optimize(opt, anfa.OptOptions{})
		if st.SizeAfter > st.SizeBefore {
			t.Errorf("%q: optimizer grew the automaton: %d -> %d", src, st.SizeBefore, st.SizeAfter)
		}
		if got := opt.EvalInterpreted(tr.Root); !sameNodes(want, got) {
			t.Errorf("%q: optimized EvalInterpreted selected %v, want %v\nbefore:\n%s\nafter:\n%s",
				src, idSet(got), idSet(want), base, opt)
		}
		if got := opt.Program().Run(tr.Root); !sameNodes(want, got) {
			t.Errorf("%q: compiled Run selected %v, want %v\nautomaton:\n%s",
				src, idSet(got), idSet(want), opt)
		}
		// The unoptimized automaton must compile correctly too.
		if got := base.Program().Run(tr.Root); !sameNodes(want, got) {
			t.Errorf("%q: compiled (unoptimized) Run selected %v, want %v", src, idSet(got), idSet(want))
		}
	}
}

// TestOptimizeSchemaPrune checks that transitions on labels the
// target schema cannot produce below the reachable types are removed,
// without changing the selection on conforming documents.
func TestOptimizeSchemaPrune(t *testing.T) {
	d := dtd.MustNew("r",
		dtd.D("r", dtd.Star("a")),
		dtd.D("a", dtd.Str()))
	tr := doc(t, `<r><a>x</a><a>y</a></r>`)
	auto, err := anfa.FromExpr(xpath.MustParse("(a | zz)*/a[text() = \"y\"] | zz"))
	if err != nil {
		t.Fatal(err)
	}
	want := auto.EvalInterpreted(tr.Root)

	opt := auto.Clone()
	st := anfa.Optimize(opt, anfa.OptOptions{Schema: d})
	if st.SizeAfter >= st.SizeBefore {
		t.Fatalf("schema pruning removed nothing: size %d -> %d\n%s", st.SizeBefore, st.SizeAfter, opt)
	}
	if got := opt.EvalInterpreted(tr.Root); !sameNodes(want, got) {
		t.Fatalf("schema-pruned EvalInterpreted selected %v, want %v\n%s", idSet(got), idSet(want), opt)
	}
	if got := opt.Program().Run(tr.Root); !sameNodes(want, got) {
		t.Fatalf("schema-pruned compiled Run selected %v, want %v\n%s", idSet(got), idSet(want), opt)
	}
	// No transition on a label the schema cannot produce may survive.
	eachTransition(opt, func(label string) {
		if label == "zz" {
			t.Fatalf("schema-dead transition on %q survived:\n%s", label, opt)
		}
	})
}

func eachTransition(a *anfa.Automaton, f func(label string)) {
	walk := func(m *anfa.Machine) {
		for s := 0; s < m.States; s++ {
			for _, tr := range m.Trans[s] {
				f(tr.Label)
			}
		}
	}
	walk(a.M)
	for _, m := range a.Names {
		walk(m)
	}
}

// TestOptimizeSharesSubANFAs checks common sub-ANFA sharing: two
// structurally identical qualifier machines registered under distinct
// names collapse onto one.
func TestOptimizeSharesSubANFAs(t *testing.T) {
	m := anfa.NewMachine()
	f1 := m.AddState()
	f2 := m.AddState()
	m.AddTransition(0, "a", f1)
	m.AddTransition(0, "b", f2)
	m.Finals[f1] = true
	m.Finals[f2] = true
	auto := anfa.NewAutomaton(m)
	mkSub := func() *anfa.Machine {
		sub := anfa.NewMachine()
		sf := sub.AddState()
		sub.AddTransition(0, "c", sf)
		sub.Finals[sf] = true
		return sub
	}
	auto.Names["T1"] = mkSub()
	auto.Names["T2"] = mkSub()
	m.Annotate(f1, anfa.QName{X: "T1"})
	m.Annotate(f2, anfa.QName{X: "T2"})

	st := anfa.Optimize(auto, anfa.OptOptions{})
	if len(auto.Names) != 1 {
		t.Fatalf("identical sub-ANFAs not shared: %d names survive\n%s", len(auto.Names), auto)
	}
	if st.Merged == 0 {
		t.Fatalf("sharing reported no merged states: %+v", st)
	}
	tr := doc(t, `<r><a><c/></a><b/></r>`)
	got := auto.Eval(tr.Root)
	if len(got) != 1 || got[0].Label != "a" {
		t.Fatalf("shared automaton selected %v, want the single a element", idSet(got))
	}
}

// TestRemoveUselessPrunesSubMachines is the regression test for
// useless-state removal inside named machines: an annotation sitting
// on a useless state of a sub-machine must be dropped with its state,
// and a name referenced only by such an annotation must be dropped
// with it (previously both survived: only the top machine was
// pruned).
func TestRemoveUselessPrunesSubMachines(t *testing.T) {
	m := anfa.NewMachine()
	f := m.AddState()
	m.AddTransition(0, "a", f)
	m.Finals[f] = true
	auto := anfa.NewAutomaton(m)

	sub := anfa.NewMachine()
	sf := sub.AddState()
	sub.AddTransition(0, "b", sf)
	sub.Finals[sf] = true
	dead := sub.AddState() // unreachable and cannot reach a final
	sub.Annotate(dead, anfa.QName{X: "Y"})
	auto.Names["X"] = sub
	auto.Names["Y"] = anfa.NewMachine() // referenced only from the dead state
	m.Annotate(f, anfa.QName{X: "X"})

	auto.RemoveUseless()

	if got := auto.Names["X"]; got == nil || got.States != 2 {
		t.Fatalf("sub-machine not pruned: %v\n%s", got, auto)
	}
	if _, ok := auto.Names["X"].Ann[2]; ok {
		t.Fatalf("orphaned annotation survived pruning:\n%s", auto)
	}
	if _, ok := auto.Names["Y"]; ok {
		t.Fatalf("name referenced only from a useless state survived:\n%s", auto)
	}
	tr := doc(t, `<r><a><b/></a></r>`)
	if got := auto.Eval(tr.Root); len(got) != 1 || got[0].Label != "a" {
		t.Fatalf("pruned automaton selected %v, want the a element", idSet(got))
	}
}
