package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// memDocs generates n class documents held in memory, each written to
// a discarded sink.
func memDocs(n int) []pipeline.Doc {
	d := workload.ClassDTD()
	r := rand.New(rand.NewSource(11))
	docs := make([]pipeline.Doc, n)
	for i := range docs {
		text := xmltree.MustGenerate(d, r, xmltree.GenOptions{StarMax: 4}).String()
		docs[i] = pipeline.Doc{
			Name: fmt.Sprintf("doc%03d", i),
			Open: func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(text)), nil },
			Sink: func() (io.WriteCloser, error) { return nopWriteCloser{io.Discard}, nil },
		}
	}
	return docs
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// TestRunStagesOnEvent runs an xse-map-style batch of 120 documents at
// -j 8 with a wide event and a tracer on the context (under -race in
// make check): every stage that ran writes exactly one field on the
// run's event, whatever the number of documents, every document gets
// its doc span on one of 8 worker lanes, and each result carries its
// elapsed time.
func TestRunStagesOnEvent(t *testing.T) {
	emb := workload.ClassEmbedding()
	docs := memDocs(120)
	paths := map[string]struct {
		opts   pipeline.Options
		fields []string
	}{
		"stream":    {pipeline.Options{Workers: 8}, []string{"doc_ms"}},
		"transform": {pipeline.Options{Workers: 8, Transform: treeTransform(emb, pipeline.Forward)}, []string{"doc_ms", "parse_ms", "map_ms", "validate_ms", "encode_ms"}},
	}
	for name, pc := range paths {
		t.Run(name, func(t *testing.T) {
			ev := obs.NewEvent("cli").Str("command", "xse-map")
			tr := obs.NewTracer()
			ctx := obs.WithTracer(obs.WithEvent(context.Background(), ev), tr)
			res, _, err := pipeline.Run(ctx, emb, docs, pc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Name, r.Err)
				}
				if r.Elapsed <= 0 {
					t.Errorf("%s: Elapsed = %v, want the doc stage's time", r.Name, r.Elapsed)
				}
			}

			rec := obs.NewRecorder(1)
			obs.NewEmitter(nil, rec).Emit(ev)
			count := map[string]int{}
			for _, a := range rec.Snapshot()[0].Attrs {
				count[a.Key]++
			}
			want := map[string]int{"command": 1}
			for _, f := range pc.fields {
				want[f] = 1
			}
			if fmt.Sprint(count) != fmt.Sprint(want) {
				t.Errorf("event fields = %v, want %v", count, want)
			}

			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Tid  int64  `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
				t.Fatal(err)
			}
			workers, docLanes := map[int64]bool{}, map[int64]int{}
			for _, e := range trace.TraceEvents {
				switch e.Name {
				case "pipeline.worker":
					workers[e.Tid] = true
				case "pipeline.doc":
					docLanes[e.Tid]++
				}
			}
			n := 0
			for lane, c := range docLanes {
				if !workers[lane] {
					t.Errorf("pipeline.doc spans on lane %d, which holds no worker", lane)
				}
				n += c
			}
			if len(workers) != 8 || n != len(docs) {
				t.Errorf("%d worker lanes and %d doc spans, want 8 and %d", len(workers), n, len(docs))
			}
		})
	}
}

// TestRunStageCountsIndependentOfWorkers: -j 1 and -j 8 move every
// pipeline counter and stage histogram count by the same amount.
func TestRunStageCountsIndependentOfWorkers(t *testing.T) {
	emb := workload.ClassEmbedding()
	docs := memDocs(100)
	for _, transform := range []bool{false, true} {
		var deltas [2]map[string]uint64
		for i, j := range []int{1, 8} {
			opts := pipeline.Options{Workers: j}
			if transform {
				opts.Transform = treeTransform(emb, pipeline.Forward)
			}
			deltas[i] = moved(func() {
				if _, _, err := pipeline.Run(context.Background(), emb, docs, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		pipelineOnly := func(d map[string]uint64) string {
			for k := range d {
				if !strings.HasPrefix(k, "xse_pipeline_") {
					delete(d, k)
				}
			}
			return fmt.Sprint(d)
		}
		if a, b := pipelineOnly(deltas[0]), pipelineOnly(deltas[1]); a != b {
			t.Errorf("transform=%v: -j 1 moved %s, -j 8 moved %s", transform, a, b)
		}
		if deltas[0]["xse_pipeline_doc_seconds/count"] != uint64(len(docs)) {
			t.Errorf("transform=%v: doc_seconds moved %d, want %d", transform, deltas[0]["xse_pipeline_doc_seconds/count"], len(docs))
		}
	}
}
