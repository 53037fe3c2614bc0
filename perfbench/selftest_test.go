package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// tinyRun runs a workload at the self-test size for a fixed number of
// passes, traced so that the per-layer counts are filled too.
func tinyRun(t *testing.T, name string, seed int64) *record {
	t.Helper()
	rec, err := run(workloads[name], runConfig{Workload: name, Seed: seed, Passes: 5, Traced: true, Size: tinySize, Setups: 1})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return rec
}

// TestDeterminism runs every workload twice on each of two seeds: the
// same seed must repeat its op and failure counts and its search step
// counts exactly, and its allocation per op within a few percent.
//
// It runs on one processor: sync.Pool keeps a per-processor slot, so
// whether a pooled scratch buffer is reused, and hence how much an op
// allocates, would otherwise depend on where the scheduler puts the
// client goroutine.
func TestDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, seed := range []int64{1, 2} {
			a, b := tinyRun(t, name, seed), tinyRun(t, name, seed)
			if a.Attempted != b.Attempted || a.Failed != b.Failed || !reflect.DeepEqual(a.FailedByKind, b.FailedByKind) {
				t.Errorf("%s seed %d: ops %d/%d failed %v, then %d/%d failed %v",
					name, seed, a.Attempted, a.Failed, a.FailedByKind, b.Attempted, b.Failed, b.FailedByKind)
			}
			for _, k := range []string{"search.steps", "search.restarts", "search.paths_enumerated", "search.found_ratio"} {
				if a.PerLayer[k] != b.PerLayer[k] {
					t.Errorf("%s seed %d: %s %v, then %v", name, seed, k, a.PerLayer[k], b.PerLayer[k])
				}
			}
			x, y := a.EndToEnd["alloc_kb_per_op"], b.EndToEnd["alloc_kb_per_op"]
			if math.Abs(x-y) > 0.05*math.Max(x, y) {
				t.Errorf("%s seed %d: alloc_kb_per_op %.1f, then %.1f", name, seed, x, y)
			}
			for _, m := range []map[string]float64{a.EndToEnd, a.PerLayer} {
				for k := range m {
					if !metricName.MatchString(k) || len(k) > 64 {
						t.Errorf("%s: bad metric name %q", name, k)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// metrics the benchmark prints, with the units it prints them in.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", wl, len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want []string) {
		var got []string
		for _, m := range listed {
			got = append(got, m.Name)
			if m.Unit != unitOf(m.Name) {
				t.Errorf("%s %s: unit %q, the benchmark prints %q", kind, m.Name, m.Unit, unitOf(m.Name))
			}
		}
		sort.Strings(got)
		want = append([]string(nil), want...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics %v, the benchmark prints %v", kind, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayerNames)
}
