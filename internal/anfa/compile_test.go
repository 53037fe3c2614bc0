package anfa_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/anfa"
	"repro/internal/guard"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestProgramRunCtxCancel: a compiled run under an ended context stops
// at its first cancellation check (every 4096 explored pairs) and
// returns a *guard.CancelError matching the context's error, with no
// answers. The document is large enough for a full run to pass that
// check several times.
func TestProgramRunCtxCancel(t *testing.T) {
	tr := doc(t, "<r>"+strings.Repeat("<a><b/></a>", 3000)+"</r>")
	auto, err := anfa.FromExpr(xpath.MustParse("(a | b)*"))
	if err != nil {
		t.Fatal(err)
	}
	prog := auto.Program()
	full := prog.Run(tr.Root)
	if len(full) <= 4096 {
		t.Fatalf("fixture too small: %d answers, want > 4096 explored pairs", len(full))
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	} {
		res, err := prog.RunCtx(tc.ctx, tr.Root)
		var ce *guard.CancelError
		if !errors.As(err, &ce) || !errors.Is(err, tc.want) {
			t.Errorf("%s: RunCtx error = %v, want a *guard.CancelError matching %v", tc.name, err, tc.want)
		}
		if res != nil {
			t.Errorf("%s: RunCtx returned %d answers alongside the error", tc.name, len(res))
		}
	}
	// The pooled runner that saw the cancellation serves the next run
	// in full.
	if got := prog.Run(tr.Root); !slices.Equal(got, full) {
		t.Errorf("run after a canceled run returned %d answers, want %d", len(got), len(full))
	}
}

// TestProgramMemoShared: racing first callers of Automaton.Program all
// get one shared program, and the optimizer resets the memo.
func TestProgramMemoShared(t *testing.T) {
	auto, err := anfa.FromExpr(xpath.MustParse("b[a]/(a | c)*"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	progs := make([]*anfa.Program, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			progs[g] = auto.Program()
		}()
	}
	close(start)
	wg.Wait()
	for g, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("goroutine %d got program %p, goroutine 0 got %p", g, p, progs[0])
		}
	}
	anfa.Optimize(auto, anfa.OptOptions{})
	if auto.Program() == progs[0] {
		t.Fatal("Optimize did not reset the program memo")
	}
}

// TestCompiledBackendsShareScratch: xpath and ANFA programs run
// alternately from 8 goroutines over two documents of different sizes
// whose NodeIDs overlap, so pooled runners pass between programs,
// backends and documents. Every answer must equal its interpreter's,
// in order: a runner that carried marks across runs would drop or
// duplicate nodes.
func TestCompiledBackendsShareScratch(t *testing.T) {
	d := workload.ClassDTD()
	r := rand.New(rand.NewSource(4))
	docs := []*xmltree.Tree{
		xmltree.MustGenerate(d, r, xmltree.GenOptions{StarMax: 4, DepthBudget: 8}),
		xmltree.MustGenerate(d, r, xmltree.GenOptions{StarMax: 10, DepthBudget: 12}),
	}
	srcs := []string{
		`class[cno]/(type/regular/prereq/class)*/title/text()`,
		`class/(type/regular/prereq/class)*`,
		`class[not(type/project)]/cno/text()`,
		`(class | class/type/regular/prereq/class)*/title`,
		`(class/type/regular/prereq)*/class[position() = 1][cno]`,
	}

	type query struct {
		src      string
		xprog    *xpath.Program
		auto     *anfa.Automaton
		wantX    [][]*xmltree.Node // per document
		wantANFA [][]*xmltree.Node
	}
	var qs []query
	for _, src := range srcs {
		q := xpath.MustParse(src)
		auto, err := anfa.FromExpr(q)
		if err != nil {
			t.Fatalf("FromExpr(%s): %v", src, err)
		}
		qu := query{src: src, xprog: xpath.Compile(q), auto: auto}
		for _, tr := range docs {
			qu.wantX = append(qu.wantX, xpath.EvalInterpreted(q, tr.Root))
			qu.wantANFA = append(qu.wantANFA, auto.EvalInterpreted(tr.Root))
		}
		qs = append(qs, qu)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				di := (g + i) % 2
				q := &qs[(g+i/2)%len(qs)]
				root := docs[di].Root
				if got := q.xprog.Run(root); !slices.Equal(got, q.wantX[di]) {
					errs <- fmt.Sprintf("xpath %s on doc %d: %v, want %v", q.src, di, xpath.IDs(got), xpath.IDs(q.wantX[di]))
					return
				}
				if got := q.auto.Program().Run(root); !slices.Equal(got, q.wantANFA[di]) {
					errs <- fmt.Sprintf("anfa %s on doc %d: %v, want %v", q.src, di, xpath.IDs(got), xpath.IDs(q.wantANFA[di]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// wideDoc is a root with k <a/> children and k interleaved <b/> ones.
func wideDoc(k int) *xmltree.Tree {
	tr := xmltree.New("r")
	for i := 0; i < k; i++ {
		xmltree.Append(tr.Root, tr.NewElement("a"))
		xmltree.Append(tr.Root, tr.NewElement("b"))
	}
	return tr
}

// TestProgramPositionWideSiblings: position qualifiers over 16,000
// same-label siblings select exactly what the compiled xpath program
// selects (and, on 2,000, what the interpreter selects), and
// a run stays linear: the position of each child comes from the child
// loop that reached it, not from a scan of its siblings.
func TestProgramPositionWideSiblings(t *testing.T) {
	wide, narrow := wideDoc(16000), wideDoc(2000)
	for _, q := range []string{
		"a[position() = 2]",
		"a[position() = 16000]",
		"b[position() = 1999]",
		"a[not(position() = 1)]",
	} {
		e := xpath.MustParse(q)
		auto, err := anfa.FromExpr(e)
		if err != nil {
			t.Fatal(err)
		}
		p := auto.Program()
		got, want := p.Run(wide.Root), xpath.Compile(e).Run(wide.Root)
		if !slices.Equal(ids(got), ids(want)) {
			t.Errorf("%s: compiled ANFA selected %v, xpath %v", q, ids(got), ids(want))
		}
		got, want = p.Run(narrow.Root), auto.EvalInterpreted(narrow.Root)
		if !slices.Equal(ids(got), ids(want)) {
			t.Errorf("%s: compiled ANFA selected %v, the interpreter %v", q, ids(got), ids(want))
		}
	}
	// Quadratic position tests took ~400 ms on the wide document;
	// linear ones take under a millisecond. Bound it loosely for -race.
	p := mustProgram(t, "a[position() = 2]")
	start := time.Now()
	p.Run(wide.Root)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("a[position() = 2] over 16,000 siblings took %v", d)
	}
}

// TestFromExprPositionOnLabelSteps: the ANFA counts position() among
// same-label siblings, which is XPath's position only on a bare label
// step. On six <a/><b/> pairs, FromExpr refuses, naming the query,
// every filter that puts position() under another subject (at the
// parent the first two selected the 3rd a against xpath's 4th, and
// nothing against xpath's one node), and on label steps both ANFA
// evaluators agree with both xpath evaluators.
func TestFromExprPositionOnLabelSteps(t *testing.T) {
	doc := wideDoc(6)
	for _, q := range []string{
		"a[not(position() = 1)][position() = 3]",
		"(a | b)[position() = 7]",
		".[position() = 1]/a[position() = 5]",
		"a[b][not(position() = 1) and b]",
	} {
		e := xpath.MustParse(q)
		_, err := anfa.FromExpr(e)
		if err == nil || !strings.Contains(err.Error(), xpath.String(e)) {
			t.Errorf("FromExpr(%s) = %v, want an error naming the query", q, err)
		}
	}
	for _, q := range []string{"a[not(position() = 1)]", "a[position() = 2]", "b[position() = 6 or position() = 1]"} {
		e := xpath.MustParse(q)
		auto, err := anfa.FromExpr(e)
		if err != nil {
			t.Fatalf("FromExpr(%s): %v", q, err)
		}
		want := ids(xpath.Eval(e, doc.Root))
		if len(want) == 0 {
			t.Fatalf("%s selects nothing; the case is vacuous", q)
		}
		for name, got := range map[string][]*xmltree.Node{
			"xpath interpreter": xpath.EvalInterpreted(e, doc.Root),
			"ANFA interpreter":  auto.EvalInterpreted(doc.Root),
			"ANFA program":      auto.Program().Run(doc.Root),
		} {
			if !slices.Equal(ids(got), want) {
				t.Errorf("%s: %s selected %v, xpath.Eval %v", q, name, ids(got), want)
			}
		}
	}
}

func ids(ns []*xmltree.Node) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func mustProgram(t testing.TB, q string) *anfa.Program {
	auto, err := anfa.FromExpr(xpath.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	return auto.Program()
}

// BenchmarkProgramPositionWide: a[position() = 2] over a root with
// 16,000 <a/> children (and as many <b/>).
func BenchmarkProgramPositionWide(b *testing.B) {
	tr := wideDoc(16000)
	p := mustProgram(b, "a[position() = 2]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(tr.Root)
	}
}
