package xpath

import "repro/internal/obs"

// Process-registry instruments for the compiled evaluator. Compile is
// control-plane (once per query); Run is the data-plane hot path, so
// it bumps exactly one counter per call, outside the instruction loop.
var (
	mCompiles = obs.Default().Counter("xse_xpath_compile_total",
		"Expressions compiled to evaluation programs.")
	mProgramLen = obs.Default().Histogram("xse_xpath_program_len",
		"Compiled program length (instructions plus qualifier instructions).",
		obs.SizeBuckets)
	mEvals = obs.Default().Counter("xse_xpath_eval_total",
		"Compiled program evaluations (Program.Run calls, including those made by Eval).")
	mScratchRecycles = obs.Default().Counter("xse_xpath_scratch_recycles_total",
		"Evaluations served by a pooled runner instead of a fresh allocation.")
)
