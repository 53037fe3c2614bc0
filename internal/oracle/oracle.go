// Package oracle is a randomized end-to-end conformance harness for
// the information-preservation guarantees of schema embeddings. From a
// deterministic seed it generates (source DTD, embedding, instance,
// X_R query) quadruples — synthetic schemas perturbed into embedding
// targets with a known ground-truth mapping — and checks the paper's
// theorems as executable properties:
//
//   - type safety (Theorem 4.1): σd(T) conforms to the target DTD;
//   - invertibility (Theorem 4.1): σd⁻¹(σd(T)) is value-isomorphic to T;
//   - query preservation (Theorem 4.2): Q(T) = idM(Tr(Q)(σd(T))) for
//     X_R queries Q and the schema-directed translation Tr;
//   - ANFA differential: evaluating the automaton M_Q built directly
//     from Q agrees with the reference X_R evaluator on the source;
//   - compiled differential: the compiled evaluation plan
//     (xpath.Compile(Q).Run) returns exactly the reference
//     interpreter's answer, in the same first-reached order;
//   - ANFA optimizer differential: on σd(T) the optimized translation
//     selects the raw translation's answers, and its compiled program
//     (Automaton.Program().Run) returns the ANFA interpreter's answer
//     in the same order;
//   - XSLT differential: the generated forward stylesheet computes
//     exactly σd, and the generated inverse stylesheet recovers T;
//   - stream differential: the streaming engine's output for σd is
//     byte-identical to the tree path's serialization;
//   - stream-inverse differential: the streaming σd⁻¹ of σd(T) is
//     byte-identical to Invert's serialization and conforms to the
//     source DTD, and on mutated targets both inverses fail or agree.
//
// Failing inputs are shrunk to minimal counterexamples (dropping star
// children, canonicalizing text, simplifying queries) and serialized to
// reproducer files that capture the schemas, mapping, document and
// query needed to replay the failure.
package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Property names one checked guarantee.
type Property string

// The checked properties.
const (
	PropGeneration   Property = "generation"
	PropTypeSafety   Property = "type-safety"
	PropInvert       Property = "invertibility"
	PropQueryPreserv Property = "query-preservation"
	PropANFADiff     Property = "anfa-differential"
	PropCompiledDiff Property = "compiled-differential"
	PropXSLTForward  Property = "xslt-forward"
	PropXSLTInverse  Property = "xslt-inverse"
	PropStreamDiff   Property = "stream-differential"
	PropAnfaOpt      Property = "anfa-opt-differential"
	PropStreamInv    Property = "stream-inverse-differential"
)

// Properties lists every property in reporting order.
func Properties() []Property {
	return []Property{
		PropGeneration, PropTypeSafety, PropInvert,
		PropQueryPreserv, PropANFADiff, PropCompiledDiff,
		PropXSLTForward, PropXSLTInverse, PropStreamDiff,
		PropAnfaOpt, PropStreamInv,
	}
}

// Config steers a run. The zero value selects usable defaults; Seed 0
// is a valid (and the default) seed.
type Config struct {
	// Trials is the number of generated scenarios. Default 100.
	Trials int
	// Seed derives every trial deterministically: trial i uses seed
	// Seed + i, so any failure replays in isolation.
	Seed int64
	// QueriesPerTrial is the number of random X_R queries checked per
	// scenario. Default 3.
	QueriesPerTrial int
	// MinTypes and MaxTypes bound the synthetic source schema size.
	// Defaults 4 and 12.
	MinTypes, MaxTypes int
	// MaxNoise bounds the perturbation level (uniform in [0, MaxNoise])
	// applied to derive the target schema. Default 0.8.
	MaxNoise float64
	// StarMax bounds children generated under Kleene stars. Default 3.
	StarMax int
	// DepthBudget bounds instance generation recursion. Default 12.
	DepthBudget int
	// NoShrink disables counterexample minimization.
	NoShrink bool
	// ReproDir, when non-empty, receives one reproducer file per
	// violation.
	ReproDir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 100
	}
	if c.QueriesPerTrial == 0 {
		c.QueriesPerTrial = 3
	}
	if c.MinTypes == 0 {
		c.MinTypes = 4
	}
	if c.MaxTypes == 0 {
		c.MaxTypes = 12
	}
	if c.MaxTypes < c.MinTypes {
		c.MaxTypes = c.MinTypes
	}
	if c.MaxNoise == 0 {
		c.MaxNoise = 0.8
	}
	if c.StarMax == 0 {
		c.StarMax = 3
	}
	if c.DepthBudget == 0 {
		c.DepthBudget = 12
	}
	return c
}

// Violation is one property failure, shrunk when shrinking is enabled.
type Violation struct {
	Trial    int
	Seed     int64
	Property Property
	Detail   string
	Source   *dtd.DTD
	Target   *dtd.DTD
	Emb      *embedding.Embedding
	Doc      *xmltree.Tree
	// Query is the offending query for query-driven properties; nil
	// otherwise.
	Query xpath.Expr
	// ReproFile is the path of the serialized counterexample, when
	// Config.ReproDir was set.
	ReproFile string
}

func (v *Violation) String() string {
	q := ""
	if v.Query != nil {
		q = fmt.Sprintf(" query=%q", xpath.String(v.Query))
	}
	return fmt.Sprintf("trial %d (seed %d) %s:%s %s", v.Trial, v.Seed, v.Property, q, v.Detail)
}

// Report aggregates a run.
type Report struct {
	Trials int
	// Checks counts executed checks per property (generation counts
	// scenarios built).
	Checks map[Property]int
	// NonTrivial counts, per query-driven property, the checks whose
	// reference answer set was non-empty — the checks with real
	// discriminating power. A run whose NonTrivial counts are near zero
	// is vacuous regardless of how many checks passed.
	NonTrivial map[Property]int
	// Violations holds every property failure, in trial order.
	Violations []Violation
}

// Failed reports whether any property was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary renders per-property counts on one line each.
func (r *Report) Summary() string {
	byProp := map[Property]int{}
	for _, v := range r.Violations {
		byProp[v.Property]++
	}
	out := fmt.Sprintf("%d trials\n", r.Trials)
	for _, p := range Properties() {
		if r.Checks[p] == 0 && byProp[p] == 0 {
			continue
		}
		extra := ""
		if n, ok := r.NonTrivial[p]; ok {
			extra = fmt.Sprintf("  (%d non-empty answers)", n)
		}
		out += fmt.Sprintf("  %-27s %6d checks  %d violations%s\n", p, r.Checks[p], byProp[p], extra)
	}
	return out
}

// Run executes the configured number of trials, honoring ctx between
// trials (a canceled context stops the run and returns the report so
// far together with ctx's error).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Checks: map[Property]int{}, NonTrivial: map[Property]int{}}
	for i := 0; i < cfg.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		seed := cfg.Seed + int64(i)
		vs := runTrial(i, seed, cfg, rep)
		for _, v := range vs {
			v.Trial, v.Seed = i, seed
			if !cfg.NoShrink {
				shrink(&v)
			}
			if cfg.ReproDir != "" {
				path, err := writeRepro(cfg.ReproDir, &v)
				if err != nil {
					return rep, fmt.Errorf("oracle: writing reproducer: %w", err)
				}
				v.ReproFile = path
			}
			if cfg.Logf != nil {
				cfg.Logf("VIOLATION %s", v.String())
			}
			rep.Violations = append(rep.Violations, v)
		}
		rep.Trials++
		if cfg.Logf != nil && (i+1)%100 == 0 {
			cfg.Logf("%d/%d trials, %d violations", i+1, cfg.Trials, len(rep.Violations))
		}
	}
	return rep, nil
}

// runTrial generates one scenario and checks every property,
// converting panics escaping library code into violations of the
// property being checked.
func runTrial(i int, seed int64, cfg Config, rep *Report) []Violation {
	r := rand.New(rand.NewSource(seed))
	tr, err := genTrial(r, cfg)
	rep.Checks[PropGeneration]++
	if err != nil {
		return []Violation{{Property: PropGeneration, Detail: err.Error()}}
	}
	return checkTrial(tr, rep)
}

// guardPanic runs f, converting a panic into a violation detail.
func guardPanic(f func() *Violation) (v *Violation) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 4096)
			n := runtime.Stack(buf, false)
			v = &Violation{Detail: fmt.Sprintf("panic: %v\n%s", p, buf[:n])}
		}
	}()
	return f()
}

// idSet renders a sorted, deduplicated list of node ids for
// set-semantics comparison of query results.
func idSet(ids []xmltree.NodeID) []xmltree.NodeID {
	out := append([]xmltree.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, id := range out {
		if i == 0 || id != dedup[len(dedup)-1] {
			dedup = append(dedup, id)
		}
	}
	return dedup
}

func idSetsEqual(a, b []xmltree.NodeID) bool {
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
