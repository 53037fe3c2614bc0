package guard

// Deterministic fault injection. A FaultPlan names pipeline stages
// ("server.migrate", "server.embed.search", …) and, per stage, what the
// first N hits of that stage should suffer: a typed error, an
// added latency, or a panic. Production code calls Fault(ctx, stage) at
// its injection points; with no plan installed that is a single atomic
// load returning nil, so the hooks are free outside chaos tests.
//
// Plans are counted, not probabilistic: "fail the first 2 migrate
// calls" always fails exactly the first 2, which is what lets the chaos
// suite assert hit counts and drain outcomes exactly.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultError is the typed error injected by an "error"-mode fault. It
// models an infrastructure failure at the injection point.
type FaultError struct {
	// Stage is the injection point that produced the error.
	Stage string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("%s: injected fault", e.Stage)
}

// Fault modes.
const (
	// FaultModeError makes the injection point return a *FaultError.
	FaultModeError = "error"
	// FaultModeLatency makes the injection point sleep (honoring the
	// context: expiry during the sleep returns a *CancelError).
	FaultModeLatency = "latency"
	// FaultModePanic makes the injection point panic, for exercising
	// recovery paths.
	FaultModePanic = "panic"
)

// FaultSpec describes the faults for one stage.
type FaultSpec struct {
	// Stage names the injection point, e.g. "server.migrate".
	Stage string
	// Mode is one of the FaultMode constants.
	Mode string
	// Count applies the fault to the first Count hits of the stage;
	// 0 means every hit.
	Count int
	// Latency is the injected delay for FaultModeLatency.
	Latency time.Duration
}

// ParseFaultSpec parses the textual spec form used by test-only CLI
// flags: "mode:stage[:arg]" where arg is a hit count for mode error or
// panic ("error:server.migrate:2") and a duration[:count] pair for mode
// latency ("latency:server.migrate:200ms" or
// "latency:server.migrate:200ms:1").
func ParseFaultSpec(s string) (FaultSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return FaultSpec{}, fmt.Errorf("fault spec %q: want mode:stage[:arg]", s)
	}
	spec := FaultSpec{Mode: parts[0], Stage: parts[1]}
	switch spec.Mode {
	case FaultModeError, FaultModePanic:
		if len(parts) > 3 {
			return FaultSpec{}, fmt.Errorf("fault spec %q: too many fields", s)
		}
		if len(parts) == 3 {
			if _, err := fmt.Sscanf(parts[2], "%d", &spec.Count); err != nil {
				return FaultSpec{}, fmt.Errorf("fault spec %q: bad count %q", s, parts[2])
			}
		}
	case FaultModeLatency:
		if len(parts) < 3 || len(parts) > 4 {
			return FaultSpec{}, fmt.Errorf("fault spec %q: want latency:stage:duration[:count]", s)
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil {
			return FaultSpec{}, fmt.Errorf("fault spec %q: bad duration %q", s, parts[2])
		}
		spec.Latency = d
		if len(parts) == 4 {
			if _, err := fmt.Sscanf(parts[3], "%d", &spec.Count); err != nil {
				return FaultSpec{}, fmt.Errorf("fault spec %q: bad count %q", s, parts[3])
			}
		}
	default:
		return FaultSpec{}, fmt.Errorf("fault spec %q: unknown mode %q", s, spec.Mode)
	}
	if spec.Stage == "" {
		return FaultSpec{}, fmt.Errorf("fault spec %q: empty stage", s)
	}
	return spec, nil
}

// faultState is one stage's spec plus its hit counter.
type faultState struct {
	spec FaultSpec
	hits atomic.Int64
}

// FaultPlan is an installed set of per-stage faults. Construct with
// NewFaultPlan and install with SetFaultPlan; Hits reports how many
// times a stage's injection point fired, which chaos tests use to
// assert exact hit counts.
type FaultPlan struct {
	mu     sync.Mutex
	stages map[string]*faultState
}

// NewFaultPlan builds a plan from specs. Later specs for the same
// stage replace earlier ones.
func NewFaultPlan(specs ...FaultSpec) *FaultPlan {
	p := &FaultPlan{stages: make(map[string]*faultState, len(specs))}
	for _, s := range specs {
		p.stages[s.Stage] = &faultState{spec: s}
	}
	return p
}

// Hits reports how many times stage's injection point was reached
// (whether or not the fault still applied).
func (p *FaultPlan) Hits(stage string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.stages[stage]
	if !ok {
		return 0
	}
	return int(st.hits.Load())
}

// activePlan is the installed plan; nil (the common case) makes every
// Fault call a single atomic load.
var activePlan atomic.Pointer[FaultPlan]

// SetFaultPlan installs p process-wide and returns a function restoring
// the previous plan. Intended for tests and the test-only -fault CLI
// flag; passing nil uninstalls.
func SetFaultPlan(p *FaultPlan) (restore func()) {
	prev := activePlan.Swap(p)
	return func() { activePlan.Store(prev) }
}

// Fault is the injection point: production code calls it where a chaos
// test may want to induce a failure. With no plan installed (or no
// spec for stage) it returns nil. Mode error returns a *FaultError;
// mode latency sleeps (a context expiry during the sleep returns a
// *CancelError); mode panic panics.
func Fault(ctx context.Context, stage string) error {
	p := activePlan.Load()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	st, ok := p.stages[stage]
	p.mu.Unlock()
	if !ok {
		return nil
	}
	hit := st.hits.Add(1)
	if st.spec.Count > 0 && hit > int64(st.spec.Count) {
		return nil
	}
	switch st.spec.Mode {
	case FaultModeError:
		return &FaultError{Stage: stage}
	case FaultModePanic:
		panic(fmt.Sprintf("%s: injected panic", stage))
	case FaultModeLatency:
		t := time.NewTimer(st.spec.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return &CancelError{Context: stage, Err: ctx.Err()}
		}
	}
	return nil
}
