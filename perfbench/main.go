// Command perfbench is the repository benchmark: four closed-loop
// workloads (search, migrate, query, serve) driven in process against
// the library and daemon APIs, each printing the seven end-to-end
// metrics, checking every output for correctness, and offering a
// separate traced run that attributes op time to the repository's
// modules.
//
// Run it from the repository root through the wrapper, which builds
// this module first:
//
//	python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A correctness violation
// prints the failing op on standard error and exits with status 1
// without a result line. Every run also writes a run record (metrics,
// sample counts, host-speed probe, and in traced runs the per-layer
// breakdown) under .bench_build/perfbench/. WORKLOADS.md describes the
// workloads, their inputs and the layer-to-metric mapping.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads by name.
var workloads = map[string]func(seed int64, size sizing) bench{
	"search":  newSearchWorkload,
	"migrate": newMigrateWorkload,
	"query":   newQueryWorkload,
	"serve":   newServeWorkload,
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: search, migrate, query or serve")
	seed := flag.Int64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload search|migrate|query|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		Workload: *name,
		Seed:     *seed,
		Seconds:  float64(*seconds),
		Traced:   *trace == 1,
		Size:     fullSize,
		Setups:   21,
		// Every workload's set-up takes a few milliseconds at most, too
		// short for 21 samples to give a steady median.
		SetupSeconds: 1.5,
	}
	rec, err := run(mk, cfg)
	if err != nil {
		var v *violation
		if errors.As(err, &v) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: correctness violation: %v\n", *name, err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		}
		os.Exit(1)
	}
	if err := writeRecord(filepath.Join(".bench_build", "perfbench"), rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run record: %v\n", err)
		os.Exit(1)
	}
	printSummary(rec)
	res := result{Correct: true, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metric{}}
	src := rec.EndToEnd
	if cfg.Traced {
		src = rec.PerLayer
	}
	for k, v := range src {
		res.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeRecord stores the full run record as
// <dir>/<workload>-seed<n>-trace<t>.json.
func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if rec.Traced {
		t = 1
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, t))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSummary prints the human-readable part of a run: every metric
// by name and unit, the op and sample counts, the host-speed probe
// and, for traced runs, each layer's share of op time.
func printSummary(rec *record) {
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, %d latency samples in %d blocks (smallest %d, %d beyond its p90), %d passes, GOMAXPROCS %d, one client\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Samples, rec.Blocks, rec.BlockMin, rec.BeyondP90, rec.Passes, runtime.GOMAXPROCS(0))
	fmt.Printf("host probe: %.3f ms before, %.3f ms after\n", rec.ProbeBeforeMS, rec.ProbeAfterMS)
	src := rec.EndToEnd
	if rec.Traced {
		src = rec.PerLayer
	}
	names := make([]string, 0, len(src))
	for k := range src {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-44s %14.6f %s\n", k, src[k], unitOf(k))
	}
	if rec.Traced {
		fmt.Printf("layer share of op time (%s):\n", rec.Workload)
		for _, l := range rec.LayerShares {
			fmt.Printf("  %-12s %6.2f%%\n", l.Layer, 100*l.Share)
		}
	}
}

// unitOf derives a metric's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case name == "setup_s":
		return "s"
	case name == "ops_per_s":
		return "ops/s"
	case name == "alloc_kb_per_op":
		return "KiB"
	case name == "peak_rss_mb":
		return "MB"
	case name == "embedding.stream_mb_s":
		return "MB/s"
	case name == "embedding.buffered_peak_bytes":
		return "bytes"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "count"
}

// elapsedMS converts a duration to float milliseconds.
func elapsedMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
