package search

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// Rejections counts candidate rejections by constraint class. The
// classes partition why the search discards work (ROADMAP item 4's
// diagnostic instrument):
//
//   - LambdaEmpty: a source type had no admissible λ candidates at all
//     (the similarity matrix offers nothing for it);
//   - PathEmpty: a λ choice skipped as unsupported (viable.go) — no path
//     of the edge's flavor reaches it from the parent's λ, it is not
//     viable below, or the edge has no enumerated candidate path —
//     counted where the search skips it (a memoized candidate list counts
//     its drops once, when built); or a production edge with no
//     candidate target paths under a chosen λ;
//   - PrefixFree: candidate path pairs rejected by the prefix-freeness
//     (or OR-divergence) check;
//   - LocalSelect: productions whose candidates admitted no mutually
//     prefix-free selection (the backtracking over pairCompat failed);
//   - Conflict: IndepSet local options discarded because their λ
//     disagreed with the partial assignment.
type Rejections struct {
	LambdaEmpty int `json:"lambda_empty"`
	PathEmpty   int `json:"path_empty"`
	PrefixFree  int `json:"prefix_free"`
	LocalSelect int `json:"local_select"`
	Conflict    int `json:"conflict"`
}

// Total sums all rejection classes.
func (r Rejections) Total() int {
	return r.LambdaEmpty + r.PathEmpty + r.PrefixFree + r.LocalSelect + r.Conflict
}

// add accumulates o into r.
func (r *Rejections) add(o Rejections) {
	r.LambdaEmpty += o.LambdaEmpty
	r.PathEmpty += o.PathEmpty
	r.PrefixFree += o.PrefixFree
	r.LocalSelect += o.LocalSelect
	r.Conflict += o.Conflict
}

// String renders the counts as key=value pairs, omitting zeros ("none"
// when all are zero).
func (r Rejections) String() string {
	s := ""
	app := func(k string, v int) {
		if v == 0 {
			return
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, v)
	}
	app("lambda_empty", r.LambdaEmpty)
	app("path_empty", r.PathEmpty)
	app("prefix_free", r.PrefixFree)
	app("local_select", r.LocalSelect)
	app("conflict", r.Conflict)
	if s == "" {
		return "none"
	}
	return s
}

// Restart outcomes recorded in RestartRecord.Outcome.
const (
	// OutcomeFound: the restart produced a valid embedding.
	OutcomeFound = "found"
	// OutcomeExhausted: the restart's candidate space was fully
	// explored without success.
	OutcomeExhausted = "exhausted"
	// OutcomeStepBudget: the restart hit MaxSteps.
	OutcomeStepBudget = "step_budget"
	// OutcomeCanceled: the context ended mid-restart.
	OutcomeCanceled = "canceled"
	// OutcomeNoOptions: IndepSet found a production with no local
	// options at all.
	OutcomeNoOptions = "no_options"
	// OutcomeConflict: IndepSet's greedy assembly dead-ended on λ
	// conflicts.
	OutcomeConflict = "conflict"
	// OutcomeInvalid: IndepSet assembled a full selection that failed
	// the independent validity checker.
	OutcomeInvalid = "invalid"
)

// RestartRecord is one restart's entry in the explainability ledger
// (Options.Explain): what the attempt tried, how far it got, and why
// its candidates died.
type RestartRecord struct {
	// Restart is the restart index (always 0 for Exact).
	Restart int `json:"restart"`
	// Heuristic and Seed reproduce the attempt.
	Heuristic string `json:"heuristic"`
	Seed      int64  `json:"seed"`
	// Steps is the backtracking steps this restart consumed.
	Steps int `json:"steps"`
	// PlacementDepth is the peak number of λ assignments held at once —
	// how deep into the source schema the partial embedding got.
	PlacementDepth int `json:"placement_depth"`
	// FrontierPeak is the largest BFS arena observed by the search so
	// far (path enumeration breadth; monotone across restarts).
	FrontierPeak int `json:"frontier_peak"`
	// Rejections breaks down why candidates died during this restart.
	// PrefixFree counts accrue to the restart that first computed a
	// local selection, and the PathEmpty counts of a filtered candidate
	// list to the restart that built it; memoized replays do not
	// re-count them.
	Rejections Rejections `json:"rejections"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// ElapsedMS is the restart's wall-clock cost in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Failure classes cached alongside nil localPaths memo entries so
// replayed failures still count toward the right rejection class.
const (
	failNone uint8 = iota
	failPathEmpty
	failLocalSelect
)

// attemptRec accumulates one restart's explainability counters. It is
// nil when Options.Explain is off, so every hot-path hook is a single
// nil check.
type attemptRec struct {
	rej      Rejections
	depth    int
	lastFail uint8
	outcome  string // set by assembleIndepSet; attempt outcomes are derived
}

// countFail maps a cached localPaths failure class onto its rejection
// counter.
func (r *attemptRec) countFail(class uint8) {
	switch class {
	case failPathEmpty:
		r.rej.PathEmpty++
	case failLocalSelect:
		r.rej.LocalSelect++
	}
}

// fail records a localPaths failure: the class counter and lastFail
// (which localPathsFor caches alongside the nil memo entry). Nil-safe
// so localPaths calls it unconditionally.
func (r *attemptRec) fail(class uint8) {
	if r == nil {
		return
	}
	r.lastFail = class
	r.countFail(class)
}

// noteDepth tracks the peak λ-assignment count.
func (r *attemptRec) noteDepth(n int) {
	if n > r.depth {
		r.depth = n
	}
}

// finishRestart turns the searcher's current attemptRec into a
// RestartRecord, folds it into the result (bounded ledger + unbounded
// aggregate rejections), emits it on the search.restart event stream
// and resets the attemptRec for the next restart. elapsed is the
// restart's wall-clock cost. No-op when recording is off.
func (s *searcher) finishRestart(res *Result, restart int, emb, exhausted bool, elapsed time.Duration) {
	if s.rec == nil {
		return
	}
	rec := RestartRecord{
		Restart:        restart,
		Heuristic:      s.opts.Heuristic.String(),
		Seed:           s.opts.Seed,
		Steps:          s.steps,
		PlacementDepth: s.rec.depth,
		FrontierPeak:   s.enum.frontier,
		Rejections:     s.rec.rej,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
	}
	rec.Rejections.PrefixFree = s.enum.rejects - s.rejectsMark
	s.rejectsMark = s.enum.rejects
	switch {
	case emb:
		rec.Outcome = OutcomeFound
	case s.rec.outcome != "":
		rec.Outcome = s.rec.outcome
	case s.stopped:
		rec.Outcome = OutcomeCanceled
	case exhausted:
		rec.Outcome = OutcomeExhausted
	default:
		rec.Outcome = OutcomeStepBudget
	}
	s.rec.rej = Rejections{}
	s.rec.depth = 0
	s.rec.outcome = ""
	res.Rejections.add(rec.Rejections)
	if len(res.Ledger) < maxLedger {
		res.Ledger = append(res.Ledger, rec)
	}
	s.emitRestart(rec)
}

// emitRestart publishes one ledger record on the context's emitter as
// a search.restart event.
func (s *searcher) emitRestart(rec RestartRecord) {
	if s.em == nil {
		return
	}
	ev := obs.NewEvent("search.restart")
	if s.reqID != "" {
		ev.Str("request_id", s.reqID)
	}
	ev.Int("restart", int64(rec.Restart)).
		Str("heuristic", rec.Heuristic).
		Int("seed", rec.Seed).
		Int("steps", int64(rec.Steps)).
		Int("placement_depth", int64(rec.PlacementDepth)).
		Int("frontier_peak", int64(rec.FrontierPeak)).
		Int("rej_lambda_empty", int64(rec.Rejections.LambdaEmpty)).
		Int("rej_path_empty", int64(rec.Rejections.PathEmpty)).
		Int("rej_prefix_free", int64(rec.Rejections.PrefixFree)).
		Int("rej_local_select", int64(rec.Rejections.LocalSelect)).
		Int("rej_conflict", int64(rec.Rejections.Conflict)).
		Str("outcome", rec.Outcome).
		Float("elapsed_ms", rec.ElapsedMS)
	s.em.Emit(ev)
}

// WriteLedger renders the explainability ledger as an aligned table:
// one row per recorded restart, followed by the aggregate rejection
// breakdown (which covers every restart, including ones past the
// ledger bound).
func WriteLedger(w io.Writer, res *Result) {
	if res == nil || (len(res.Ledger) == 0 && res.Rejections.Total() == 0) {
		fmt.Fprintln(w, "ledger: empty (run with Explain / -explain)")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "RESTART\tOUTCOME\tSTEPS\tDEPTH\tFRONTIER\tREJECTIONS\tMS")
	for _, r := range res.Ledger {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%s\t%.1f\n",
			r.Restart, r.Outcome, r.Steps, r.PlacementDepth,
			r.FrontierPeak, r.Rejections, r.ElapsedMS)
	}
	tw.Flush()
	fmt.Fprintf(w, "totals: %d restart(s) recorded, rejections: %s\n",
		len(res.Ledger), res.Rejections)
}
