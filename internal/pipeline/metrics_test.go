package pipeline_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// totals reads every counter and histogram count of the process
// registry by metric key (a histogram's count under key+"/count").
func totals() map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range obs.Default().Snapshot() {
		switch m.Kind {
		case obs.KindCounter:
			out[m.Key()] = m.Counter
		case obs.KindHistogram:
			out[m.Key()+"/count"] = m.Hist.Count
		}
	}
	return out
}

// moved runs f and returns how far it moved each counter and histogram
// count of the process registry, keeping only those that moved. The
// tests of this package run sequentially, so the deltas are f's own.
func moved(f func()) map[string]uint64 {
	before := totals()
	f()
	d := map[string]uint64{}
	for k, v := range totals() {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// queueDepth reads the process-wide batch queue gauge.
func queueDepth() int64 {
	return obs.Default().Gauge("xse_pipeline_queue_depth", "").Value()
}

// TestMetricsAccounting runs a mixed batch (valid docs plus one
// unparseable) and checks the ledger it adds to the process registry:
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
	emb := workload.ClassEmbedding()
	var stats pipeline.Stats
	d := moved(func() {
		_, stats, err = pipeline.Run(context.Background(), emb, docs,
			pipeline.Options{Workers: 3, Transform: treeTransform(emb, pipeline.Forward)})
	})
	if err != nil {
		t.Fatal(err)
	}

	total := d["xse_pipeline_docs_total"]
	ok := d["xse_pipeline_docs_ok_total"]
	failed := d["xse_pipeline_docs_failed_total"]
	if total != 7 || ok != 6 || failed != 1 {
		t.Errorf("docs_total=%d ok=%d failed=%d, want 7/6/1", total, ok, failed)
	}
	if total != ok+failed {
		t.Errorf("ledger broken: docs_total %d != ok %d + failed %d", total, ok, failed)
	}
	if got := d["xse_pipeline_errors_total{stage=parse}"]; got != 1 {
		t.Errorf("errors_total{stage=parse} = %d, want 1", got)
	}
	if got := d["xse_pipeline_read_bytes_total"]; got != uint64(stats.InBytes) {
		t.Errorf("read_bytes_total = %d, stats.InBytes = %d", got, stats.InBytes)
	}
	if got := d["xse_pipeline_written_bytes_total"]; got != uint64(stats.OutBytes) {
		t.Errorf("written_bytes_total = %d, stats.OutBytes = %d", got, stats.OutBytes)
	}
	if got := queueDepth(); got != 0 {
		t.Errorf("queue_depth = %d after run, want 0", got)
	}
	if got := d["xse_pipeline_doc_seconds/count"]; got != total {
		t.Errorf("doc_seconds count = %d, want %d", got, total)
	}
	// Only the documents that survived parsing reach these stages.
	for _, name := range []string{"xse_pipeline_map_seconds", "xse_pipeline_validate_seconds", "xse_pipeline_encode_seconds"} {
		if got := d[name+"/count"]; got != ok {
			t.Errorf("%s count = %d, want %d", name, got, ok)
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

	var stats pipeline.Stats
	d := moved(func() {
		_, stats, err = pipeline.Run(context.Background(), workload.ClassEmbedding(), docs,
			pipeline.Options{Workers: 3})
	})
	if err != nil {
		t.Fatal(err)
	}

	total := d["xse_pipeline_docs_total"]
	ok := d["xse_pipeline_docs_ok_total"]
	failed := d["xse_pipeline_docs_failed_total"]
	if total != 7 || ok != 6 || failed != 1 {
		t.Errorf("docs_total=%d ok=%d failed=%d, want 7/6/1", total, ok, failed)
	}
	if got := d["xse_pipeline_errors_total{stage=parse}"]; got != 1 {
		t.Errorf("errors_total{stage=parse} = %d, want 1", got)
	}
	if got := d["xse_pipeline_read_bytes_total"]; got != uint64(stats.InBytes) {
		t.Errorf("read_bytes_total = %d, stats.InBytes = %d", got, stats.InBytes)
	}
	if got := d["xse_pipeline_written_bytes_total"]; got != uint64(stats.OutBytes) {
		t.Errorf("written_bytes_total = %d, stats.OutBytes = %d", got, stats.OutBytes)
	}
	// Every document — including the one that failed mid-parse — went
	// through the engine, so the stream ledger saw all 7.
	if got := d["xse_stream_docs_total"]; got != 7 {
		t.Errorf("xse_stream_docs_total = %d, want 7", got)
	}
}

// TestMetricsWorkerEquivalence: the registry totals are a function of
// the workload, not the schedule — one worker and eight workers must
// move the same counters and histogram counts by the same amounts.
func TestMetricsWorkerEquivalence(t *testing.T) {
	dir := t.TempDir()
	writeBatchDir(t, dir, 10)

	run := func(workers int) map[string]uint64 {
		t.Helper()
		docs, err := pipeline.DirDocs(dir, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		d := moved(func() {
			_, _, err = pipeline.Run(context.Background(), workload.ClassEmbedding(), docs,
				pipeline.Options{Workers: workers})
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	j1, j8 := run(1), run(8)
	if len(j1) != len(j8) {
		t.Fatalf("metric sets differ: j1 moved %d, j8 moved %d", len(j1), len(j8))
	}
	for key, want := range j1 {
		if got, ok := j8[key]; !ok || got != want {
			t.Errorf("%s: j1=%d j8=%d", key, want, got)
		}
	}
}

// TestSlowLog: with a positive SlowThreshold every document slower than
// it gets one "pipeline: slow doc" line on SlowLog, tagged ok or failed;
// a zero threshold logs nothing.
func TestSlowLog(t *testing.T) {
	dir := t.TempDir()
	writeBatchDir(t, dir, 4)
	if err := os.WriteFile(filepath.Join(dir, "broken.xml"), []byte("<db><cl<"), 0o644); err != nil {
		t.Fatal(err)
	}
	docs, err := pipeline.DirDocs(dir, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	for _, threshold := range []time.Duration{time.Nanosecond, 0} {
		var log bytes.Buffer
		results, _, err := pipeline.Run(context.Background(), workload.ClassEmbedding(), docs,
			pipeline.Options{Workers: 2, SlowThreshold: threshold, SlowLog: &log})
		if err != nil {
			t.Fatal(err)
		}
		if threshold == 0 {
			if log.Len() != 0 {
				t.Errorf("threshold 0 logged:\n%s", log.String())
			}
			continue
		}
		lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
		if len(lines) != len(results) {
			t.Fatalf("%d slow lines for %d documents:\n%s", len(lines), len(results), log.String())
		}
		for _, r := range results {
			status := "ok)"
			if r.Err != nil {
				status = "failed)"
			}
			found := 0
			for _, l := range lines {
				if strings.HasPrefix(l, "pipeline: slow doc "+r.Name+": ") && strings.HasSuffix(l, status) {
					found++
				}
			}
			if found != 1 {
				t.Errorf("%s: %d %q slow lines, want 1:\n%s", r.Name, found, status, log.String())
			}
		}
		if failed := strings.Count(log.String(), " failed)\n"); failed != 1 {
			t.Errorf("%d failed lines, want 1 (broken.xml):\n%s", failed, log.String())
		}
	}
}
