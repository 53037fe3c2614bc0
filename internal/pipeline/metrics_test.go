package pipeline_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// counterValue reads a (possibly labeled) counter back out of a
// registry snapshot by its full key.
func counterValue(t *testing.T, r *obs.Registry, key string) uint64 {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Key() == key {
			return m.Counter
		}
	}
	t.Fatalf("metric %q not in registry", key)
	return 0
}

// TestMetricsAccounting runs a mixed batch (valid docs plus one
// unparseable) against a fresh registry and checks the ledger:
// docs_total == ok + failed, the failure is attributed to its stage,
// byte counters match the returned stats, every stage histogram saw
// every successful document, and the queue gauge drained to zero.
func TestMetricsAccounting(t *testing.T) {
	dir := t.TempDir()
	outDir := t.TempDir()
	writeBatchDir(t, dir, 6)
	if err := os.WriteFile(filepath.Join(dir, "broken.xml"), []byte("<db><class>"), 0o644); err != nil {
		t.Fatal(err)
	}
	docs, err := pipeline.DirDocs(dir, outDir)
	if err != nil {
		t.Fatal(err)
	}

	// A custom Transform (the tree σd): the per-stage histograms below
	// are the Transform path's ledger (the streaming path has its own
	// xse_stream_* instruments, covered by TestMetricsStreamAccounting).
	reg := obs.NewRegistry()
	emb := workload.ClassEmbedding()
	_, stats, err := pipeline.Run(context.Background(), emb, docs,
		pipeline.Options{Workers: 3, Obs: reg, Transform: treeTransform(emb, pipeline.Forward)})
	if err != nil {
		t.Fatal(err)
	}

	total := counterValue(t, reg, "xse_pipeline_docs_total")
	ok := counterValue(t, reg, "xse_pipeline_docs_ok_total")
	failed := counterValue(t, reg, "xse_pipeline_docs_failed_total")
	if total != 7 || ok != 6 || failed != 1 {
		t.Errorf("docs_total=%d ok=%d failed=%d, want 7/6/1", total, ok, failed)
	}
	if total != ok+failed {
		t.Errorf("ledger broken: docs_total %d != ok %d + failed %d", total, ok, failed)
	}
	if got := counterValue(t, reg, "xse_pipeline_errors_total{stage=parse}"); got != 1 {
		t.Errorf("errors_total{stage=parse} = %d, want 1", got)
	}
	if got := counterValue(t, reg, "xse_pipeline_read_bytes_total"); got != uint64(stats.InBytes) {
		t.Errorf("read_bytes_total = %d, stats.InBytes = %d", got, stats.InBytes)
	}
	if got := counterValue(t, reg, "xse_pipeline_written_bytes_total"); got != uint64(stats.OutBytes) {
		t.Errorf("written_bytes_total = %d, stats.OutBytes = %d", got, stats.OutBytes)
	}

	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "xse_pipeline_queue_depth":
			if m.Gauge != 0 {
				t.Errorf("queue_depth = %d after run, want 0", m.Gauge)
			}
		case "xse_pipeline_doc_seconds":
			if m.Hist.Count != total {
				t.Errorf("doc_seconds count = %d, want %d", m.Hist.Count, total)
			}
		case "xse_pipeline_map_seconds", "xse_pipeline_validate_seconds", "xse_pipeline_encode_seconds":
			// Only the documents that survived parsing reach these stages.
			if m.Hist.Count != ok {
				t.Errorf("%s count = %d, want %d", m.Name, m.Hist.Count, ok)
			}
		}
	}
}

// TestMetricsStreamAccounting: the default (streaming) path keeps the
// pipeline-level ledger — docs/ok/failed, stage-tagged errors, byte
// counters — and additionally feeds the engine's xse_stream_*
// instruments.
func TestMetricsStreamAccounting(t *testing.T) {
	dir := t.TempDir()
	outDir := t.TempDir()
	writeBatchDir(t, dir, 6)
	if err := os.WriteFile(filepath.Join(dir, "broken.xml"), []byte("<db><cl<"), 0o644); err != nil {
		t.Fatal(err)
	}
	docs, err := pipeline.DirDocs(dir, outDir)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, stats, err := pipeline.Run(context.Background(), workload.ClassEmbedding(), docs,
		pipeline.Options{Workers: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	total := counterValue(t, reg, "xse_pipeline_docs_total")
	ok := counterValue(t, reg, "xse_pipeline_docs_ok_total")
	failed := counterValue(t, reg, "xse_pipeline_docs_failed_total")
	if total != 7 || ok != 6 || failed != 1 {
		t.Errorf("docs_total=%d ok=%d failed=%d, want 7/6/1", total, ok, failed)
	}
	if got := counterValue(t, reg, "xse_pipeline_errors_total{stage=parse}"); got != 1 {
		t.Errorf("errors_total{stage=parse} = %d, want 1", got)
	}
	if got := counterValue(t, reg, "xse_pipeline_read_bytes_total"); got != uint64(stats.InBytes) {
		t.Errorf("read_bytes_total = %d, stats.InBytes = %d", got, stats.InBytes)
	}
	if got := counterValue(t, reg, "xse_pipeline_written_bytes_total"); got != uint64(stats.OutBytes) {
		t.Errorf("written_bytes_total = %d, stats.OutBytes = %d", got, stats.OutBytes)
	}
	// Every document — including the one that failed mid-parse — went
	// through the engine, so the stream ledger saw all 7.
	if got := counterValue(t, reg, "xse_stream_docs_total"); got != 7 {
		t.Errorf("xse_stream_docs_total = %d, want 7", got)
	}
}

// TestMetricsWorkerEquivalence: the registry totals are a function of
// the workload, not the schedule — one worker and eight workers must
// produce identical counter values and histogram counts.
func TestMetricsWorkerEquivalence(t *testing.T) {
	dir := t.TempDir()
	writeBatchDir(t, dir, 10)

	run := func(workers int) map[string]uint64 {
		t.Helper()
		docs, err := pipeline.DirDocs(dir, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, _, err := pipeline.Run(context.Background(), workload.ClassEmbedding(), docs,
			pipeline.Options{Workers: workers, Obs: reg}); err != nil {
			t.Fatal(err)
		}
		totals := map[string]uint64{}
		for _, m := range reg.Snapshot() {
			switch m.Kind {
			case obs.KindCounter:
				totals[m.Key()] = m.Counter
			case obs.KindHistogram:
				totals[m.Key()+"/count"] = m.Hist.Count
			}
		}
		return totals
	}

	j1, j8 := run(1), run(8)
	if len(j1) != len(j8) {
		t.Fatalf("metric sets differ: j1 has %d, j8 has %d", len(j1), len(j8))
	}
	for key, want := range j1 {
		if got, ok := j8[key]; !ok || got != want {
			t.Errorf("%s: j1=%d j8=%d", key, want, got)
		}
	}
}

// TestNopRegistryRun: a run against the no-op registry completes and
// records nothing — the configuration benchmarks use to measure
// instrumentation overhead.
func TestNopRegistryRun(t *testing.T) {
	dir := t.TempDir()
	writeBatchDir(t, dir, 3)
	docs, err := pipeline.DirDocs(dir, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nop := obs.Nop()
	if _, stats, err := pipeline.Run(context.Background(), workload.ClassEmbedding(), docs,
		pipeline.Options{Workers: 2, Obs: nop}); err != nil || stats.Docs != 3 {
		t.Fatalf("nop run: stats=%+v err=%v", stats, err)
	}
	if snap := nop.Snapshot(); len(snap) != 0 {
		t.Errorf("nop registry recorded %d metrics", len(snap))
	}
}
