package search

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/obs"
)

// failingPair builds a pair with no embedding: the target root is
// empty, so every source edge's path enumeration comes up dry.
func failingPair() (*dtd.DTD, *dtd.DTD) {
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B", "C")),
		dtd.D("B", dtd.Empty()),
		dtd.D("C", dtd.Empty()))
	tgt := dtd.MustNew("R", dtd.D("R", dtd.Empty()))
	return src, tgt
}

// identityPair embeds trivially into itself.
func identityPair() (*dtd.DTD, *dtd.DTD) {
	d := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B", "C")),
		dtd.D("B", dtd.Str()),
		dtd.D("C", dtd.Empty()))
	return d, d
}

// TestLedgerCountsSkippedChoices: a λ choice the viability pruning
// skips counts as one path_empty rejection where it is skipped — once
// when a filtered candidate list drops it, once per skip in try.
func TestLedgerCountsSkippedChoices(t *testing.T) {
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B")),
		dtd.D("B", dtd.Concat("C")),
		dtd.D("C", dtd.Empty()))
	tgt := dtd.MustNew("R",
		dtd.D("R", dtd.Concat("X", "Y")),
		dtd.D("X", dtd.Concat("Z")),
		dtd.D("Y", dtd.Empty()),
		dtd.D("Z", dtd.Empty()),
		dtd.D("U", dtd.Empty()))
	for _, tc := range []struct {
		name string
		att  map[[2]string]float64
		want int
	}{
		// U is first in att order but no path from R reaches it: the
		// list of B's choices under λ(A) = R drops it.
		{"unreachable", map[[2]string]float64{{"B", "U"}: 1, {"B", "X"}: 0.5, {"C", "Z"}: 1}, 1},
		// Y is reachable but not viable: C's only candidate Z is not
		// below Y, so try skips Y before taking X.
		{"not viable", map[[2]string]float64{{"B", "Y"}: 1, {"B", "X"}: 0.5, {"C", "Z"}: 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			att := embedding.NewSimMatrix()
			att.Set("A", "R", 1)
			for k, v := range tc.att {
				att.Set(k[0], k[1], v)
			}
			res, err := Find(src, tgt, att, Options{Heuristic: QualityOrdered, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Embedding == nil || res.Embedding.Lambda["B"] != "X" {
				t.Fatalf("want λ(B) = X, got %+v", res.Embedding)
			}
			if got := res.Rejections.PathEmpty; got != tc.want {
				t.Errorf("path_empty = %d, want %d (%s)", got, tc.want, res.Rejections)
			}
		})
	}
}

func TestLedgerDisabledByDefault(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger != nil {
		t.Fatalf("Ledger recorded without Explain: %+v", res.Ledger)
	}
	if res.Rejections.Total() != 0 {
		t.Fatalf("Rejections counted without Explain: %+v", res.Rejections)
	}
}

func TestLedgerRecordsFailure(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil {
		t.Fatal("unexpected embedding into an empty target")
	}
	if len(res.Ledger) == 0 {
		t.Fatal("Explain produced no ledger records")
	}
	for _, r := range res.Ledger {
		if r.Heuristic != "Random" {
			t.Errorf("record heuristic = %q", r.Heuristic)
		}
		if r.Outcome != OutcomeExhausted {
			t.Errorf("restart %d outcome = %q, want %q", r.Restart, r.Outcome, OutcomeExhausted)
		}
		if r.PlacementDepth < 1 {
			t.Errorf("restart %d placement depth = %d", r.Restart, r.PlacementDepth)
		}
	}
	if res.Rejections.PathEmpty == 0 {
		t.Errorf("expected path_empty rejections against an empty target, got %+v", res.Rejections)
	}
}

func TestLedgerRecordsSuccess(t *testing.T) {
	src, tgt := identityPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding == nil {
		t.Fatal("identity pair not embedded")
	}
	if n := len(res.Ledger); n == 0 {
		t.Fatal("no ledger records")
	}
	last := res.Ledger[len(res.Ledger)-1]
	if last.Outcome != OutcomeFound {
		t.Errorf("final outcome = %q, want %q", last.Outcome, OutcomeFound)
	}
}

// TestLedgerBound: the ledger keeps the earliest maxLedger restarts,
// while the aggregate rejections cover every restart. IndepSet never
// reports exhaustion, so it runs every restart of the failing pair.
func TestLedgerBound(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Heuristic: IndepSet, Seed: 1, MaxRestarts: 2 * maxLedger, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2*maxLedger {
		t.Fatalf("restarts = %d, want %d", res.Restarts, 2*maxLedger)
	}
	if len(res.Ledger) != maxLedger {
		t.Fatalf("ledger holds %d records, want maxLedger = %d", len(res.Ledger), maxLedger)
	}
	var recorded Rejections
	for i, r := range res.Ledger {
		if r.Restart != i {
			t.Fatalf("ledger[%d] is restart %d: the earliest restarts must be kept in order", i, r.Restart)
		}
		recorded.add(r.Rejections)
	}
	if res.Rejections.Total() <= recorded.Total() {
		t.Errorf("aggregate rejections %v do not cover the restarts past the ledger bound (recorded %v)", res.Rejections, recorded)
	}
}

func TestLedgerIndepSetOutcomes(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{
		Seed: 1, MaxRestarts: 2, Explain: true, Heuristic: IndepSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ledger) == 0 {
		t.Fatal("IndepSet produced no ledger records")
	}
	for _, r := range res.Ledger {
		switch r.Outcome {
		case OutcomeNoOptions, OutcomeConflict, OutcomeInvalid, OutcomeFound, OutcomeCanceled, OutcomeStepBudget:
		default:
			t.Errorf("unexpected IndepSet outcome %q", r.Outcome)
		}
	}
}

func TestLedgerEmitsRestartEvents(t *testing.T) {
	rec := obs.NewRecorder(64)
	ctx := obs.WithEmitter(context.Background(), obs.NewEmitter(nil, rec))
	ctx = obs.WithRequestID(ctx, "feedfacecafebeef")

	src, tgt := identityPair()
	if _, err := FindCtx(ctx, src, tgt, nil, Options{Seed: 1, Explain: true}); err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if len(evs) == 0 {
		t.Fatal("no search.restart events recorded")
	}
	for _, e := range evs {
		if e.Name != "search.restart" {
			t.Errorf("event name = %q", e.Name)
		}
		if !e.MatchAttr("request_id", "feedfacecafebeef") {
			t.Errorf("event missing request_id: %+v", e.Attrs)
		}
	}
}

func TestLedgerNoEventsWithoutEmitter(t *testing.T) {
	// Explain without a context emitter must not panic or emit.
	src, tgt := identityPair()
	if _, err := Find(src, tgt, nil, Options{Seed: 1, Explain: true}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLedger(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 2, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteLedger(&b, res)
	out := b.String()
	for _, want := range []string{"RESTART", "OUTCOME", "exhausted", "totals:", "path_empty="} {
		if !strings.Contains(out, want) {
			t.Errorf("ledger table missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	WriteLedger(&empty, &Result{})
	if !strings.Contains(empty.String(), "empty") {
		t.Errorf("empty ledger rendering = %q", empty.String())
	}
}
