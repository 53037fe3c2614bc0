package pipeline

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// Process-registry instruments for batch runs. Every document is one
// pipeline.doc stage, which feeds xse_pipeline_doc_seconds and the
// run event's doc_ms on both paths. The streaming path's one fused
// pipeline.stream stage is a span only (its stage detail is the
// engine's xse_stream_*); the parse/map/validate/encode stage
// histograms and event fields time the custom Transform path. Stage
// error counters are pre-created per stage (index = Stage), so a
// failure is one atomic add.
var (
	mDocs = obs.Default().Counter("xse_pipeline_docs_total",
		"Documents attempted by batch runs.")
	mDocsOK = obs.Default().Counter("xse_pipeline_docs_ok_total",
		"Documents migrated successfully.")
	mDocsFailed = obs.Default().Counter("xse_pipeline_docs_failed_total",
		"Documents that failed in any stage (docs_total = ok + failed).")
	mReadBytes = obs.Default().Counter("xse_pipeline_read_bytes_total",
		"Input bytes consumed across all documents.")
	mWritten = obs.Default().Counter("xse_pipeline_written_bytes_total",
		"Output bytes serialized across all documents.")
	mQueueDepth = obs.Default().Gauge("xse_pipeline_queue_depth",
		"Documents queued or in flight in the current batch run.")

	stWorker = obs.NewStage("pipeline.worker", nil, "")
	stDoc    = obs.NewStage("pipeline.doc", obs.Default().Histogram("xse_pipeline_doc_seconds",
		"Per-document end-to-end pipeline latency.", obs.LatencyBuckets), "doc_ms")
	stStream = obs.NewStage("pipeline.stream", nil, "")
	stParse  = obs.NewStage("pipeline.parse", obs.Default().Histogram("xse_pipeline_parse_seconds",
		"Per-document read+parse latency.", obs.LatencyBuckets), "parse_ms")
	stMap = obs.NewStage("pipeline.map", obs.Default().Histogram("xse_pipeline_map_seconds",
		"Per-document transform latency.", obs.LatencyBuckets), "map_ms")
	stValidate = obs.NewStage("pipeline.validate", obs.Default().Histogram("xse_pipeline_validate_seconds",
		"Per-document output validation latency.", obs.LatencyBuckets), "validate_ms")
	stEncode = obs.NewStage("pipeline.encode", obs.Default().Histogram("xse_pipeline_encode_seconds",
		"Per-document serialization latency.", obs.LatencyBuckets), "encode_ms")

	mErrByStage = func() (c [StageWrite + 1]*obs.Counter) {
		for s := StageRead; s <= StageWrite; s++ {
			c[s] = obs.Default().CounterL("xse_pipeline_errors_total",
				"Per-document pipeline failures, by stage.", "stage", s.String())
		}
		return c
	}()
)

// slowLogger writes one line per document exceeding the configured
// threshold, serialized so concurrent workers do not interleave.
type slowLogger struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
}

func newSlowLogger(threshold time.Duration, w io.Writer) *slowLogger {
	if threshold <= 0 {
		return nil
	}
	if w == nil {
		w = os.Stderr
	}
	return &slowLogger{threshold: threshold, w: w}
}

func (l *slowLogger) observe(res *DocResult) {
	if l == nil || res.Elapsed < l.threshold {
		return
	}
	status := "ok"
	if res.Err != nil {
		status = "failed"
	}
	l.mu.Lock()
	fmt.Fprintf(l.w, "pipeline: slow doc %s: %v (in=%dB out=%dB %s)\n",
		res.Name, res.Elapsed.Round(time.Microsecond), res.InBytes, res.OutBytes, status)
	l.mu.Unlock()
}
