package corpus

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/match"
	"repro/internal/search"
)

// TestPairsLoad asserts the embedded corpus parses: every pair has
// consistent schemas, parses its curated queries, and includes the
// four real-world scenarios the workload promises.
func TestPairsLoad(t *testing.T) {
	pairs := MustPairs()
	want := map[string]bool{"dblp": true, "mondial": true, "newsml": true, "xmark": true}
	for _, p := range pairs {
		delete(want, p.Name)
		if err := p.Source.Check(); err != nil {
			t.Errorf("%s: source schema: %v", p.Name, err)
		}
		if err := p.Target.Check(); err != nil {
			t.Errorf("%s: target schema: %v", p.Name, err)
		}
		if len(p.Queries) == 0 {
			t.Errorf("%s: no curated queries", p.Name)
		}
		if len(p.Queries) != len(p.QueryTexts) {
			t.Errorf("%s: queries and texts misaligned", p.Name)
		}
	}
	for name := range want {
		t.Errorf("missing corpus pair %q", name)
	}
}

// TestPairsNormalForm asserts each DTD file is already in the paper's
// normal form: parsing must not have introduced synthetic types, so
// that instances of the parsed schema validate against the raw DTD
// text under an external validator.
func TestPairsNormalForm(t *testing.T) {
	for _, p := range MustPairs() {
		for _, ty := range append(append([]string(nil), p.Source.Types...), p.Target.Types...) {
			for _, c := range ty {
				if c == '.' {
					t.Errorf("%s: normalization introduced synthetic type %q — keep corpus DTDs in normal form", p.Name, ty)
					break
				}
			}
		}
	}
}

// TestEveryPairEmbeds asserts each evolution pair admits an embedding
// that at least one heuristic finds under the corpus budgets — the
// corpus-wide invariant everything else builds on.
func TestEveryPairEmbeds(t *testing.T) {
	for _, p := range MustPairs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			att := match.Lexical(p.Source, p.Target, 0)
			res, err := search.Find(p.Source, p.Target, att, search.Options{
				Heuristic: search.QualityOrdered, Seed: 1, MaxRestarts: 200,
			})
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			if res.Embedding == nil {
				t.Fatalf("QualityOrdered found no embedding (restarts=%d steps=%d)", res.Restarts, res.Steps)
			}
			if err := res.Embedding.Validate(att); err != nil {
				t.Fatalf("found embedding fails validation: %v", err)
			}
		})
	}
}

// TestEveryHeuristicCoversEveryPair guards the heuristic shoot-out:
// at the corpus runner's default bounds Random, QualityOrdered and
// IndepSet each find every checked-in pair, so `make corpus` reports
// full coverage for all three.
func TestEveryHeuristicCoversEveryPair(t *testing.T) {
	cfg := RunConfig{}.withDefaults()
	for _, p := range MustPairs() {
		att := match.Lexical(p.Source, p.Target, cfg.SimThreshold)
		for _, h := range cfg.Heuristics {
			res, err := search.Find(p.Source, p.Target, att, cfg.searchOptions(h))
			if err != nil {
				t.Fatalf("%s/%s: search: %v", p.Name, h, err)
			}
			if res.Embedding == nil {
				t.Errorf("%s/%s: no embedding (restarts=%d steps=%d rejections: %s)",
					p.Name, h, res.Restarts, res.Steps, res.Rejections)
			}
		}
	}
}

// TestGenerateSized asserts the size knob actually controls document
// size and the result conforms.
func TestGenerateSized(t *testing.T) {
	for _, p := range MustPairs() {
		small, err := GenerateSized(p.Source, 1, 50)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		large, err := GenerateSized(p.Source, 1, 2000)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := small.Validate(p.Source); err != nil {
			t.Errorf("%s: small instance invalid: %v", p.Name, err)
		}
		if err := large.Validate(p.Source); err != nil {
			t.Errorf("%s: large instance invalid: %v", p.Name, err)
		}
		if large.Size() < 2000 {
			t.Errorf("%s: requested ~2000 nodes, got %d", p.Name, large.Size())
		}
		if small.Size() >= large.Size() {
			t.Errorf("%s: size knob has no effect: small=%d large=%d", p.Name, small.Size(), large.Size())
		}
		// Determinism per seed.
		again, err := GenerateSized(p.Source, 1, 50)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if small.String() != again.String() {
			t.Errorf("%s: generation is not deterministic per seed", p.Name)
		}
	}
}

// TestRunEndToEnd drives the full pipeline on every pair with small
// documents and asserts the acceptance invariants: every pair is
// covered by at least one heuristic and there are zero pipeline
// violations.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is seconds-long; skipped with -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := Run(ctx, RunConfig{
		Docs:     2,
		DocNodes: 150,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := len(rep.Pairs); got < 4 {
		t.Fatalf("expected >= 4 pairs, got %d", got)
	}
	if un := rep.Uncovered(); len(un) > 0 {
		t.Errorf("pairs with no embedding found by any heuristic: %v", un)
	}
	if v := rep.Violations(); v != 0 {
		t.Errorf("pipeline violations: %d\n%s", v, rep.Table())
	}
	// The report must round-trip as JSON (the machine-readable
	// contract of make corpus).
	blob, err := rep.JSON()
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if len(back.Pairs) != len(rep.Pairs) {
		t.Errorf("json round-trip lost pairs")
	}
	// Every row carries the rejection breakdown (possibly all zero),
	// and the table renders one line per row plus the header.
	rows := 0
	for _, p := range back.Pairs {
		for _, row := range p.Rows {
			rows++
			if row.Rejections == nil {
				t.Errorf("%s/%s: no rejection breakdown", row.Pair, row.Heuristic)
			}
		}
	}
	tbl := rep.RejectionTable()
	if !strings.Contains(tbl, "lambda_empty") || !strings.Contains(tbl, "prefix_free") {
		t.Errorf("rejection table missing headers:\n%s", tbl)
	}
	if got := strings.Count(tbl, "\n"); got != rows+1 {
		t.Errorf("rejection table has %d lines, want %d rows + header", got, rows)
	}
}

// TestRunSelectsPairs asserts pair filtering and the unknown-pair
// error path.
func TestRunSelectsPairs(t *testing.T) {
	ctx := context.Background()
	rep, err := Run(ctx, RunConfig{
		Pairs:      []string{"newsml"},
		Heuristics: []search.Heuristic{search.QualityOrdered},
		Docs:       1,
		DocNodes:   60,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Pairs) != 1 || rep.Pairs[0].Pair != "newsml" {
		t.Fatalf("pair filter failed: %+v", rep.Pairs)
	}
	if _, err := Run(ctx, RunConfig{Pairs: []string{"nope"}}); !errors.Is(err, ErrUnknownPair) {
		t.Fatalf("expected ErrUnknownPair, got %v", err)
	}
}
