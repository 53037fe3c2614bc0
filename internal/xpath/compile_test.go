package xpath

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/xmltree"
)

// identical reports exact result equality: same nodes (by identity) in
// the same order. Compiled evaluation must reproduce the interpreter's
// first-reached order, not just its answer set.
func identical(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompiledMatchesInterpretedTable: the compiled program agrees
// with the interpreter on the hand-written evaluation table.
func TestCompiledMatchesInterpretedTable(t *testing.T) {
	tr := evalDoc(t)
	queries := []string{
		".", "a", "b/a", "a/text()", "b/a/text()", "a | b", "b | a",
		"a | a", "(a | b)/text()", "a[position() = 2]/text()",
		"a[text() = \"x\"]/text()", "a[text() = \"nope\"]", "b[a]",
		"b[not(a)]", "b[a and c]", "b[a and not(c)]", "b[zz or c]",
		"b[true()]", "zz", ".//a", "b//c", ".//text()", "(. | .)/a",
		"(a | b)*", "a*", "(a/b)*/a",
	}
	for _, src := range queries {
		t.Run(src, func(t *testing.T) {
			q := MustParse(src)
			want := EvalInterpreted(q, tr.Root)
			p := Compile(q)
			for i := 0; i < 3; i++ { // repeated runs reuse pooled scratch
				got := p.Run(tr.Root)
				if !identical(got, want) {
					t.Fatalf("run %d: Compile(%q).Run = [%s], want [%s]",
						i, src, labels(got), labels(want))
				}
			}
		})
	}
}

// runAll evaluates p at several context nodes through the runner: the
// evaluation every step after the first performs, driven here from
// chosen contexts.
func runAll(p *Program, ctxs []*xmltree.Node) []*xmltree.Node {
	r := &runner{p: p}
	return finish(r.eval(p.root, ctxs))
}

// TestCompiledMatchesInterpretedRandom: differential over random
// schema-aware queries and random instances, including evaluation over
// multi-node (and duplicate-bearing) context sets.
func TestCompiledMatchesInterpretedRandom(t *testing.T) {
	d := queryTestDTD()
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := RandomQuery(r, d, GenOptions{})
		tr := xmltree.MustGenerate(d, r, xmltree.GenOptions{})
		want := EvalInterpreted(q, tr.Root)
		got := Compile(q).Run(tr.Root)
		if !identical(got, want) {
			t.Fatalf("seed %d: query %q: compiled [%s] != interpreted [%s]",
				seed, String(q), labels(got), labels(want))
		}
		// Multi-context differential: every class node, root twice.
		ctxs := EvalInterpreted(MustParse(".//class"), tr.Root)
		ctxs = append(ctxs, tr.Root, tr.Root)
		wantAll := (&evaluator{}).eval(q, ctxs)
		gotAll := runAll(Compile(q), ctxs)
		if !identical(gotAll, wantAll) {
			t.Fatalf("seed %d: query %q over %d contexts: compiled [%s] != interpreted [%s]",
				seed, String(q), len(ctxs), labels(gotAll), labels(wantAll))
		}
	}
}

// TestProgramConcurrent: one Program served from many goroutines
// returns the same answer everywhere (run with -race).
func TestProgramConcurrent(t *testing.T) {
	d := queryTestDTD()
	r := rand.New(rand.NewSource(11))
	tr := xmltree.MustGenerate(d, r, xmltree.GenOptions{StarMax: 5, DepthBudget: 10})
	p := Compile(MustParse(`class[cno]/(type/regular/prereq/class)*/title/text()`))
	want := p.Run(tr.Root)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := p.Run(tr.Root); !identical(got, want) {
					errs <- fmt.Sprintf("concurrent run diverged: [%s] != [%s]", labels(got), labels(want))
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

// TestProgramRunAllocs: steady-state compiled evaluation allocates
// only the caller-owned result slice (scratch is pooled). The bound
// is deliberately loose (≤4) to stay robust across Go versions; the
// interpreter's map-per-dedupe profile is an order of magnitude above
// it.
func TestProgramRunAllocs(t *testing.T) {
	tr := evalDoc(t)
	p := Compile(MustParse(`(a | b)/text()`))
	p.Run(tr.Root) // warm the pool
	avg := testing.AllocsPerRun(200, func() {
		p.Run(tr.Root)
	})
	if avg > 4 {
		t.Errorf("compiled Run allocates %.1f allocs/op, want <= 4", avg)
	}
}

// TestDedupeSmallNoAlloc: duplicate-free small results pass through
// dedupe without allocating (the interpreter hot-spot fix).
func TestDedupeSmallNoAlloc(t *testing.T) {
	tr := evalDoc(t)
	nodes := EvalInterpreted(MustParse(".//a"), tr.Root)
	if len(nodes) < 2 || len(nodes) > smallDedupe {
		t.Fatalf("fixture wrong size: %d nodes", len(nodes))
	}
	avg := testing.AllocsPerRun(100, func() {
		dedupe(nodes)
	})
	if avg != 0 {
		t.Errorf("dedupe of a small duplicate-free set allocates %.1f allocs/op, want 0", avg)
	}
	// And it still actually deduplicates.
	dup := []*xmltree.Node{nodes[0], nodes[1], nodes[0], nodes[1], nodes[0]}
	got := dedupe(dup)
	if len(got) != 2 || got[0] != nodes[0] || got[1] != nodes[1] {
		t.Errorf("dedupe([n0 n1 n0 n1 n0]) = %d nodes", len(got))
	}
}

// TestUnionSingleCopyAllocs: the interpreter's Union no longer makes
// the double append-copy; one evaluation of a two-branch union on the
// small doc stays under a tight allocation budget.
func TestUnionSingleCopyAllocs(t *testing.T) {
	tr := evalDoc(t)
	q := MustParse("a | b")
	avg := testing.AllocsPerRun(200, func() {
		EvalInterpreted(q, tr.Root)
	})
	// Two child-collection slices + one union buffer; anything near
	// the old double-copy profile (5+) fails.
	if avg > 4 {
		t.Errorf("interpreted union allocates %.1f allocs/op, want <= 4", avg)
	}
}

// TestCompiledSetGrowth: evaluation across documents of very
// different sizes through one Program grows and reuses the NodeID
// visited sets correctly.
func TestCompiledSetGrowth(t *testing.T) {
	d := queryTestDTD()
	q := MustParse(`(class | class/type/regular/prereq/class)*`)
	p := Compile(q)
	for _, star := range []int{1, 40, 3} {
		r := rand.New(rand.NewSource(int64(star)))
		tr := xmltree.MustGenerate(d, r, xmltree.GenOptions{StarMax: star, DepthBudget: 14})
		want := EvalInterpreted(q, tr.Root)
		if got := p.Run(tr.Root); !identical(got, want) {
			t.Fatalf("StarMax=%d: compiled [%d nodes] != interpreted [%d nodes]",
				star, len(got), len(want))
		}
	}
}

// TestPooledRunnerPinsNoDocument: after a run, the runner that Run
// returns to the pool holds no node pointer anywhere in its free
// buffers' backing arrays, so a runner idling in the pool does not keep
// the last document alive. The queries shorten buffers every way the
// runner does: dedupe drops a tail, a star resets its frontier, a
// filter reuses its context buffer. The test drives its own runner
// through Run's body rather than reading one back from the pool, which
// under -race drops a quarter of what it is given at random.
func TestPooledRunnerPinsNoDocument(t *testing.T) {
	d := queryTestDTD()
	tr := xmltree.MustGenerate(d, rand.New(rand.NewSource(3)), xmltree.GenOptions{StarMax: 6, DepthBudget: 10})
	for _, q := range []string{
		`class[cno]/(type/regular/prereq/class)*/title/text()`,
		`(class | class/type/regular/prereq/class)*`,
		`class[position() = 2]/title | class/title`,
	} {
		r := &runner{}
		if len(r.run(Compile(MustParse(q)), tr.Root)) == 0 {
			t.Fatalf("%s selects nothing; the check needs a non-empty run", q)
		}
		if len(r.free) == 0 {
			t.Fatalf("%s: the runner has no free buffers", q)
		}
		for i, b := range r.free {
			for j, n := range b[:cap(b)] {
				if n != nil {
					t.Errorf("%s: free buffer %d holds node %q at %d", q, i, n.Label, j)
					break
				}
			}
		}
	}
}
