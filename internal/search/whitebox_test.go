package search

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/workload"
)

func enumFor(t *testing.T, d *dtd.DTD) *enumerator {
	t.Helper()
	return newEnumerator(d, d.Size()+2, 64, 1<<14, 2)
}

func TestEnumeratorANDFlavor(t *testing.T) {
	tgt := dtd.MustNew("r",
		dtd.D("r", dtd.Concat("a", "b")),
		dtd.D("a", dtd.Concat("c")),
		dtd.D("b", dtd.Disj("c", "d")),
		dtd.D("c", dtd.Empty()),
		dtd.D("d", dtd.Empty()))
	e := enumFor(t, tgt)
	// AND paths to c: only r/a/c (the b route crosses an OR edge).
	cands := e.paths("r", "c", flavorAND)
	if len(cands) != 1 || cands[0].path.String() != "a/c" {
		t.Fatalf("AND candidates to c = %v", cands)
	}
	// OR paths to c: only through b.
	cands = e.paths("r", "c", flavorOR)
	if len(cands) != 1 || cands[0].path.String() != "b/c" {
		t.Fatalf("OR candidates to c = %v", cands)
	}
	// No STAR path exists anywhere in this target.
	if cands := e.paths("r", "c", flavorSTAR); len(cands) != 0 {
		t.Fatalf("unexpected STAR candidates: %v", cands)
	}
}

func TestEnumeratorSTARFlavor(t *testing.T) {
	tgt := dtd.MustNew("r",
		dtd.D("r", dtd.Concat("list")),
		dtd.D("list", dtd.Star("item")),
		dtd.D("item", dtd.Concat("v")),
		dtd.D("v", dtd.Str()))
	e := enumFor(t, tgt)
	cands := e.paths("r", "item", flavorSTAR)
	if len(cands) == 0 {
		t.Fatal("no STAR candidates")
	}
	found := false
	for _, c := range cands {
		if c.path.String() == "list/item" {
			found = true
			// The iterator slot is unpinned.
			if c.slots[1].occ != 0 {
				t.Errorf("iterator slot = %+v, want occ 0", c.slots[1])
			}
		}
	}
	if !found {
		t.Fatalf("list/item not enumerated: %v", candsStrings(cands))
	}
	// AND flavor through the star requires pinning: list/item[1] or [2].
	and := e.paths("r", "item", flavorAND)
	pins := map[int]bool{}
	for _, c := range and {
		if len(c.slots) == 2 {
			pins[c.slots[1].occ] = true
		}
	}
	if !pins[1] || !pins[2] {
		t.Errorf("pinned AND star candidates missing: %v", candsStrings(and))
	}
}

func TestEnumeratorSTRFlavor(t *testing.T) {
	tgt := dtd.MustNew("r",
		dtd.D("r", dtd.Concat("a", "b")),
		dtd.D("a", dtd.Str()),
		dtd.D("b", dtd.Empty()))
	e := enumFor(t, tgt)
	cands := e.strCandidates("r")
	if len(cands) != 1 || cands[0].path.String() != "a/text()" {
		t.Fatalf("str candidates from r = %v", candsStrings(cands))
	}
	// From a str-typed start, the zero-step text() path comes first.
	cands = e.strCandidates("a")
	if len(cands) == 0 || cands[0].path.String() != "text()" {
		t.Fatalf("str candidates from a = %v", candsStrings(cands))
	}
}

func TestEnumeratorOccurrenceBranching(t *testing.T) {
	tgt := dtd.MustNew("r",
		dtd.D("r", dtd.Concat("x", "x")),
		dtd.D("x", dtd.Empty()))
	e := enumFor(t, tgt)
	cands := e.paths("r", "x", flavorAND)
	if len(cands) != 2 {
		t.Fatalf("got %d candidates for duplicated child, want 2: %v", len(cands), candsStrings(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		seen[c.path.String()] = true
	}
	if !seen["x[position() = 1]"] || !seen["x[position() = 2]"] {
		t.Errorf("occurrence candidates = %v", candsStrings(cands))
	}
}

func TestEnumeratorCaps(t *testing.T) {
	// A wide fan-out target; tiny caps must bound the result.
	defs := []dtd.Def{dtd.D("r", dtd.Concat("a", "b", "c", "d"))}
	for _, n := range []string{"a", "b", "c", "d"} {
		defs = append(defs, dtd.D(n, dtd.Concat("leaf")))
	}
	defs = append(defs, dtd.D("leaf", dtd.Empty()))
	tgt := dtd.MustNew("r", defs...)
	e := newEnumerator(tgt, 8, 2, 1<<14, 2)
	if cands := e.paths("r", "leaf", flavorAND); len(cands) > 2 {
		t.Errorf("candidate cap ignored: %d", len(cands))
	}
}

func TestLocalPathsPrefixFreeSelection(t *testing.T) {
	// Source: A -> (B, C); target offers exactly two prefix-free routes
	// but the shortest ones conflict, forcing backtracking.
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B", "C")),
		dtd.D("B", dtd.Empty()),
		dtd.D("C", dtd.Empty()))
	tgt := dtd.MustNew("A1",
		dtd.D("A1", dtd.Concat("B1", "D")),
		dtd.D("B1", dtd.Concat("C1")),
		dtd.D("C1", dtd.Empty()),
		dtd.D("D", dtd.Concat("B2")),
		dtd.D("B2", dtd.Empty()))
	e := enumFor(t, tgt)
	// λ(B)=B1 (reachable directly), λ(C)=C1 (only below B1): B1 and
	// B1/C1 conflict, so B must take nothing else — no selection exists.
	lam := map[string]string{"A": "A1", "B": "B1", "C": "C1"}
	if got := localPaths(e, src, "A", lam, nil); got != nil {
		t.Fatalf("conflicting selection accepted: %v", got)
	}
	// λ(B)=B2 resolves it: D/B2 and B1/C1 are prefix-free.
	lam["B"] = "B2"
	got := localPaths(e, src, "A", lam, nil)
	if got == nil {
		t.Fatal("no selection found")
	}
	if got[embedding.Ref("A", "B")].String() != "D/B2" {
		t.Errorf("path(A,B) = %v", got[embedding.Ref("A", "B")])
	}
}

func TestLocalPathsDisjunctionDivergence(t *testing.T) {
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Disj("B", "C")),
		dtd.D("B", dtd.Empty()),
		dtd.D("C", dtd.Empty()))
	// Divergence at AND edges only: U/B1 vs W/C1 — must be rejected.
	tgt := dtd.MustNew("A1",
		dtd.D("A1", dtd.Concat("U", "W")),
		dtd.D("U", dtd.Disj("B1", "Z1")),
		dtd.D("W", dtd.Disj("C1", "Z2")),
		dtd.D("B1", dtd.Empty()), dtd.D("C1", dtd.Empty()),
		dtd.D("Z1", dtd.Empty()), dtd.D("Z2", dtd.Empty()))
	e := enumFor(t, tgt)
	lam := map[string]string{"A": "A1", "B": "B1", "C": "C1"}
	if got := localPaths(e, src, "A", lam, nil); got != nil {
		t.Fatalf("non-OR divergence accepted: %v", got)
	}
	// A target where both disjuncts hang off one OR node works.
	tgt2 := dtd.MustNew("A1",
		dtd.D("A1", dtd.Concat("U")),
		dtd.D("U", dtd.Disj("B1", "C1")),
		dtd.D("B1", dtd.Empty()), dtd.D("C1", dtd.Empty()))
	e2 := enumFor(t, tgt2)
	if got := localPaths(e2, src, "A", lam, nil); got == nil {
		t.Fatal("valid disjunct selection rejected")
	}
}

func TestHeuristicString(t *testing.T) {
	for h, want := range map[Heuristic]string{
		Random: "Random", QualityOrdered: "QualityOrdered",
		IndepSet: "IndepSet", Exact: "Exact", Heuristic(9): "Heuristic(9)",
	} {
		if h.String() != want {
			t.Errorf("String(%d) = %q", int(h), h.String())
		}
	}
}

// TestOptionsDefaults pins the Options defaults and the fixed
// per-heuristic bounds newSearcher hands the enumerator.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxRestarts != 20 || o.MaxSteps != 100000 || o.LocalOptions != 16 {
		t.Errorf("heuristic defaults wrong: %+v", o)
	}
	e := Options{Heuristic: Exact}.withDefaults()
	if e.MaxSteps != int(^uint(0)>>1) {
		t.Errorf("exact defaults wrong: %+v", e)
	}
	if maxLedger != 64 {
		t.Errorf("maxLedger = %d, want 64", maxLedger)
	}
	small, _ := identityPair()
	big := workload.SchoolDTD()
	for _, tc := range []struct {
		h                          Heuristic
		tgt                        *dtd.DTD
		maxLen, cands, expand, pin int
	}{
		{Random, small, 4, 24, 4096, 2},
		{QualityOrdered, big, big.Size(), 24, 4096, 2},
		{IndepSet, big, big.Size(), 24, 4096, 2},
		{Exact, big, big.Size(), 512, 1 << 17, 2},
	} {
		s := newSearcher(context.Background(), small, tc.tgt, embedding.UniformSim(small, tc.tgt), Options{Heuristic: tc.h}.withDefaults())
		got := [4]int{s.enum.maxLen, s.enum.maxCands, s.enum.maxExpand, s.enum.maxPin}
		if want := [4]int{tc.maxLen, tc.cands, tc.expand, tc.pin}; got != want {
			t.Errorf("%s on %s: bounds (len, cands, expand, pin) = %v, want %v", tc.h, tc.tgt.Root, got, want)
		}
	}
}

func candsStrings(cs []candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.path.String()
	}
	return out
}

// TestReachCoversEnumeration: the viability test's reach sets must
// over-approximate the enumerator — every enumerated candidate path of
// every flavor, from every target type, ends at a type the reach set
// holds — or pruning would drop choices the search can complete.
func TestReachCoversEnumeration(t *testing.T) {
	targets := []*dtd.DTD{
		dtd.MustNew("r",
			dtd.D("r", dtd.Concat("l", "d")),
			dtd.D("l", dtd.Star("i")),
			dtd.D("i", dtd.Concat("v", "r2")),
			dtd.D("d", dtd.Disj("v", "i")),
			dtd.D("r2", dtd.Star("r")),
			dtd.D("v", dtd.Str())),
	}
	for _, nd := range workload.Corpus() {
		targets = append(targets, nd.DTD)
	}
	r := rand.New(rand.NewSource(3))
	for _, size := range []int{25, 60} {
		targets = append(targets, workload.MustSyntheticDTD(r, size))
	}
	for _, d := range targets {
		e := enumFor(t, d)
		v := newViability(newSchemaIndex(d, e.tab))
		for _, from := range d.Types {
			fi := v.ix.tgt.index[from]
			for _, fl := range []flavor{flavorAND, flavorOR, flavorSTAR, flavorSTR} {
				reach := v.reachable(fi, fl)
				check := func(to string) {
					for _, c := range e.paths(from, to, fl) {
						end := from
						if n := len(c.path.Steps); n > 0 {
							end = c.path.Steps[n-1].Label
						}
						if !reach.test(int(v.ix.tgt.index[end])) {
							t.Errorf("%s: candidate %s from %s (flavor %d) ends outside the reach set", d.Root, c.path, from, fl)
						}
					}
				}
				if fl == flavorSTR {
					check("")
					continue
				}
				for _, to := range d.Types {
					check(to)
				}
			}
		}
	}
}
