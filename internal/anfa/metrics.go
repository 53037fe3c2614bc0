package anfa

import "repro/internal/obs"

// Process-registry instruments. Evaluation is the data-plane hot path:
// both counters are bumped once per call (Eval / RemoveUseless), never
// inside the BFS loops.
var (
	mEvals = obs.Default().Counter("xse_anfa_evals_total",
		"Automaton evaluations (Automaton.Eval calls, each running the compiled program).")
	mPruned = obs.Default().Counter("xse_anfa_pruned_states_total",
		"States discarded by useless-state removal across all constructions.")
)

// Optimizer and compiled-backend instruments: bumped once per
// Optimize / Compile / Run call, never inside the hot loops.
var (
	mOptStatesRemoved = obs.Default().Counter("xse_anfa_opt_states_removed_total",
		"States dropped by the optimizer as schema-dead or useless.")
	mOptMerged = obs.Default().Counter("xse_anfa_opt_merged_total",
		"States eliminated by the optimizer's subset construction, bisimulation merging and sub-ANFA sharing.")
	mOptPrograms = obs.Default().Counter("xse_anfa_opt_programs_total",
		"Compiled ANFA programs built (anfa.Compile calls; racing first Program calls on one automaton may each compile).")
	mCompiledEvals = obs.Default().Counter("xse_anfa_compiled_evals_total",
		"Compiled-program evaluations (Program.Run and RunCtx calls).")
)
