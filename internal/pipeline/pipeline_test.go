package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/pipeline"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// writeBatchDir fills dir with n valid source documents for the class
// embedding, deterministic per seed, and returns their file names.
func writeBatchDir(t *testing.T, dir string, n int) []string {
	t.Helper()
	d := workload.ClassDTD()
	r := rand.New(rand.NewSource(7))
	var names []string
	for i := 0; i < n; i++ {
		tree := xmltree.MustGenerate(d, r, xmltree.GenOptions{StarMax: 4})
		name := fmt.Sprintf("doc%03d.xml", i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(tree.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return names
}

func TestRunForwardBatch(t *testing.T) {
	dir := t.TempDir()
	outDir := t.TempDir()
	names := writeBatchDir(t, dir, 12)
	docs, err := pipeline.DirDocs(dir, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(names) {
		t.Fatalf("DirDocs found %d docs, want %d", len(docs), len(names))
	}

	emb := workload.ClassEmbedding()
	results, stats, err := pipeline.Run(context.Background(), emb, docs, pipeline.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Name, r.Err)
			}
		}
		t.Fatalf("failed = %d, want 0", stats.Failed)
	}
	if stats.Docs != len(names) || stats.InBytes == 0 || stats.OutBytes == 0 {
		t.Errorf("stats = %+v, want %d docs with nonzero byte counts", stats, len(names))
	}
	// Every output parses and conforms to the target schema.
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := xmltree.ParseString(string(data))
		if err != nil {
			t.Fatalf("%s: output does not reparse: %v", name, err)
		}
		if err := tree.Validate(emb.Target); err != nil {
			t.Errorf("%s: output does not conform: %v", name, err)
		}
	}
}

// TestRunRoundTrip: forward then inverse through the pipeline recovers
// the original documents.
func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fwdDir := t.TempDir()
	backDir := t.TempDir()
	names := writeBatchDir(t, dir, 6)
	emb := workload.ClassEmbedding()

	docs, err := pipeline.DirDocs(dir, fwdDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := pipeline.Run(context.Background(), emb, docs, pipeline.Options{Workers: 3}); err != nil || stats.Failed != 0 {
		t.Fatalf("forward: err=%v failed=%d", err, stats.Failed)
	}
	back, err := pipeline.DirDocs(fwdDir, backDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := pipeline.Run(context.Background(), emb, back, pipeline.Options{Workers: 3, Op: pipeline.Inverse}); err != nil || stats.Failed != 0 {
		t.Fatalf("inverse: err=%v failed=%d", err, stats.Failed)
	}
	for _, name := range names {
		orig, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(backDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(orig) != string(got) {
			t.Errorf("%s: σd⁻¹(σd(T)) differs from T", name)
		}
	}
}

// TestRunMixedValidity: one malformed and one non-conforming document
// fail individually without poisoning the rest of the batch.
func TestRunMixedValidity(t *testing.T) {
	dir := t.TempDir()
	outDir := t.TempDir()
	writeBatchDir(t, dir, 4)
	if err := os.WriteFile(filepath.Join(dir, "bad-syntax.xml"), []byte("<db><class>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad-schema.xml"), []byte("<wrong/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	docs, err := pipeline.DirDocs(dir, outDir)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := pipeline.Run(context.Background(), workload.ClassEmbedding(), docs, pipeline.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 2 {
		t.Fatalf("failed = %d, want 2", stats.Failed)
	}
	for _, r := range results {
		base := filepath.Base(r.Name)
		switch base {
		case "bad-syntax.xml":
			var de *pipeline.DocError
			if !errors.As(r.Err, &de) || de.Stage != pipeline.StageParse {
				t.Errorf("bad-syntax: err = %v, want a StageParse DocError", r.Err)
			}
		case "bad-schema.xml":
			var de *pipeline.DocError
			if !errors.As(r.Err, &de) || de.Stage != pipeline.StageMap {
				t.Errorf("bad-schema: err = %v, want a StageMap DocError", r.Err)
			}
		default:
			if r.Err != nil {
				t.Errorf("%s: unexpected error %v", r.Name, r.Err)
			}
			if _, err := os.Stat(filepath.Join(outDir, base)); err != nil {
				t.Errorf("%s: missing output: %v", base, err)
			}
		}
	}
}

// TestRunWorkerEquivalence: the same batch under 1 and 8 workers
// produces byte-identical outputs and identical per-document error
// classification.
func TestRunWorkerEquivalence(t *testing.T) {
	dir := t.TempDir()
	writeBatchDir(t, dir, 10)
	if err := os.WriteFile(filepath.Join(dir, "zz-bad.xml"), []byte("<db><nope/></db>"), 0o644); err != nil {
		t.Fatal(err)
	}
	emb := workload.ClassEmbedding()

	run := func(workers int) (map[string]string, []string) {
		outDir := t.TempDir()
		docs, err := pipeline.DirDocs(dir, outDir)
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := pipeline.Run(context.Background(), emb, docs, pipeline.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		outs := map[string]string{}
		var errs []string
		for _, r := range results {
			base := filepath.Base(r.Name)
			if r.Err != nil {
				var de *pipeline.DocError
				errors.As(r.Err, &de)
				errs = append(errs, fmt.Sprintf("%s@%s", base, de.Stage))
				continue
			}
			data, err := os.ReadFile(filepath.Join(outDir, base))
			if err != nil {
				t.Fatal(err)
			}
			outs[base] = string(data)
		}
		return outs, errs
	}

	out1, errs1 := run(1)
	out8, errs8 := run(8)
	if len(out1) != len(out8) {
		t.Fatalf("output counts differ: %d vs %d", len(out1), len(out8))
	}
	for name, want := range out1 {
		if out8[name] != want {
			t.Errorf("%s: -j 1 and -j 8 outputs differ", name)
		}
	}
	if fmt.Sprint(errs1) != fmt.Sprint(errs8) {
		t.Errorf("error sets differ: %v vs %v", errs1, errs8)
	}
}

// TestRunCancellation: a canceled context stops the batch; every
// unprocessed document reports a cancellation DocError, and Canceled()
// distinguishes them from genuine per-document faults.
func TestRunCancellation(t *testing.T) {
	dir := t.TempDir()
	writeBatchDir(t, dir, 16)
	docs, err := pipeline.DirDocs(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats, err := pipeline.Run(ctx, workload.ClassEmbedding(), docs, pipeline.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != len(docs) {
		t.Fatalf("failed = %d, want all %d", stats.Failed, len(docs))
	}
	for _, r := range results {
		if !r.Canceled() {
			t.Errorf("%s: err = %v, want cancellation", r.Name, r.Err)
		}
		var ce *guard.CancelError
		if !errors.As(r.Err, &ce) || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want *guard.CancelError wrapping context.Canceled", r.Name, r.Err)
		}
	}
}

// TestRunNoSink: a nil Sink still transforms and validates.
func TestRunNoSink(t *testing.T) {
	dir := t.TempDir()
	writeBatchDir(t, dir, 3)
	docs, err := pipeline.DirDocs(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := pipeline.Run(context.Background(), workload.ClassEmbedding(), docs, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("failed = %d, want 0: %+v", stats.Failed, results)
	}
	if stats.OutBytes != 0 {
		t.Errorf("OutBytes = %d, want 0 with discarded output", stats.OutBytes)
	}
	if stats.InBytes == 0 {
		t.Error("InBytes = 0, want input accounting even without a sink")
	}
}

// treeTransform is the compiled mapping's differential baseline as a
// custom Transform: the tree σd (ApplyCtx) forward, the tree σd⁻¹
// (InvertCtx) inverse.
func treeTransform(emb *embedding.Embedding, op pipeline.Op) func(context.Context, *xmltree.Tree) (*xmltree.Tree, error) {
	if op == pipeline.Inverse {
		return emb.InvertCtx
	}
	return func(ctx context.Context, t *xmltree.Tree) (*xmltree.Tree, error) {
		res, err := emb.ApplyCtx(ctx, t)
		if err != nil {
			return nil, err
		}
		return res.Tree, nil
	}
}

// batchOutcome is one run's observable result: output bytes of the
// documents that succeeded and the failure stage of those that did not,
// both by base name.
type batchOutcome struct {
	files  map[string]string
	stages map[string]pipeline.Stage
}

// runBatchOutcome runs every document of dir into a fresh output
// directory and collects the outcome.
func runBatchOutcome(t *testing.T, emb *embedding.Embedding, dir string, opts pipeline.Options) batchOutcome {
	t.Helper()
	outDir := t.TempDir()
	docs, err := pipeline.DirDocs(dir, outDir)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := pipeline.Run(context.Background(), emb, docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := batchOutcome{files: map[string]string{}, stages: map[string]pipeline.Stage{}}
	for _, r := range results {
		base := filepath.Base(r.Name)
		if r.Err != nil {
			var de *pipeline.DocError
			if !errors.As(r.Err, &de) {
				t.Fatalf("%s: err %v is not a *DocError", r.Name, r.Err)
			}
			o.stages[base] = de.Stage
			if _, err := os.Stat(filepath.Join(outDir, base)); err == nil {
				t.Errorf("%s: failed document left an output file", base)
			}
			continue
		}
		b, err := os.ReadFile(filepath.Join(outDir, base))
		if err != nil {
			t.Fatal(err)
		}
		o.files[base] = string(b)
	}
	return o
}

// TestStreamTreeBatchEquivalence pins the default (streaming) batch
// path, in both directions, to the tree mapping run as a custom
// Transform (ApplyCtx forward, InvertCtx inverse): same mixed batch,
// byte-identical output files, identical per-document error stages,
// and -j1 ≡ -j4 on both paths.
func TestStreamTreeBatchEquivalence(t *testing.T) {
	emb := workload.ClassEmbedding()
	dir := t.TempDir()
	writeBatchDir(t, dir, 8)
	// A document the decoder rejects and one that parses but does not
	// conform: both paths must attribute them to the same stages.
	if err := os.WriteFile(filepath.Join(dir, "broken.xml"), []byte("<db><cl<"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "nonconforming.xml"), []byte("<db><wrong/></db>"), 0o644); err != nil {
		t.Fatal(err)
	}

	compare := func(dir string, op pipeline.Op, wantOK int) batchOutcome {
		t.Helper()
		want := runBatchOutcome(t, emb, dir, pipeline.Options{Op: op, Workers: 1, Transform: treeTransform(emb, op)})
		if len(want.files) != wantOK || len(want.stages) != 2 {
			t.Fatalf("op %d tree baseline: %d ok, %d failed, want %d/2", op, len(want.files), len(want.stages), wantOK)
		}
		if want.stages["broken.xml"] != pipeline.StageParse {
			t.Errorf("op %d tree: broken.xml stage = %v, want parse", op, want.stages["broken.xml"])
		}
		if want.stages["nonconforming.xml"] != pipeline.StageMap {
			t.Errorf("op %d tree: nonconforming.xml stage = %v, want map", op, want.stages["nonconforming.xml"])
		}
		for _, mode := range []struct {
			name string
			opts pipeline.Options
		}{
			{"tree-j4", pipeline.Options{Op: op, Workers: 4, Transform: treeTransform(emb, op)}},
			{"stream-j1", pipeline.Options{Op: op, Workers: 1}},
			{"stream-j4", pipeline.Options{Op: op, Workers: 4}},
		} {
			got := runBatchOutcome(t, emb, dir, mode.opts)
			if len(got.files) != len(want.files) {
				t.Fatalf("op %d %s: %d ok docs, want %d", op, mode.name, len(got.files), len(want.files))
			}
			for name, body := range want.files {
				if got.files[name] != body {
					t.Errorf("op %d %s: %s output differs from tree baseline", op, mode.name, name)
				}
			}
			for name, stage := range want.stages {
				if got.stages[name] != stage {
					t.Errorf("op %d %s: %s stage = %v, want %v", op, mode.name, name, got.stages[name], stage)
				}
			}
		}
		return want
	}

	fwd := compare(dir, pipeline.Forward, 8)

	// Inverse leg: the forward images plus a broken and a
	// non-conforming target document.
	invDir := t.TempDir()
	for name, body := range fwd.files {
		if err := os.WriteFile(filepath.Join(invDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(invDir, "broken.xml"), []byte("<school><cour<"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(invDir, "nonconforming.xml"), []byte("<wrong/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	inv := compare(invDir, pipeline.Inverse, 8)
	for name, body := range inv.files {
		orig, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(orig) != body {
			t.Errorf("%s: σd⁻¹(σd(T)) differs from T", name)
		}
	}
}

// TestTransformValidatesAgainstOpSchema: a custom Transform's output is
// validated against the schema of the run's direction — the target DTD
// forward, the source DTD inverse — and a non-conforming result fails
// at StageValidate, leaving no output file. The identity transform
// makes the point: a source document passes through an inverse run
// (it conforms to the source DTD) and fails a forward one.
func TestTransformValidatesAgainstOpSchema(t *testing.T) {
	emb := workload.ClassEmbedding()
	srcDir := t.TempDir()
	writeBatchDir(t, srcDir, 3)
	tgtDir := t.TempDir()
	fwd := runBatchOutcome(t, emb, srcDir, pipeline.Options{})
	for name, body := range fwd.files {
		if err := os.WriteFile(filepath.Join(tgtDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	identity := func(_ context.Context, doc *xmltree.Tree) (*xmltree.Tree, error) { return doc, nil }

	for _, tc := range []struct {
		name   string
		dir    string
		op     pipeline.Op
		wantOK bool
	}{
		{"forward/source-docs", srcDir, pipeline.Forward, false},
		{"forward/target-docs", tgtDir, pipeline.Forward, true},
		{"inverse/source-docs", srcDir, pipeline.Inverse, true},
		{"inverse/target-docs", tgtDir, pipeline.Inverse, false},
	} {
		got := runBatchOutcome(t, emb, tc.dir, pipeline.Options{Op: tc.op, Workers: 2, Transform: identity})
		if tc.wantOK {
			if len(got.files) != 3 || len(got.stages) != 0 {
				t.Errorf("%s: %d ok, failures %v; want all 3 to pass validation", tc.name, len(got.files), got.stages)
			}
			continue
		}
		if len(got.stages) != 3 {
			t.Errorf("%s: %d failed, want 3", tc.name, len(got.stages))
		}
		for name, stage := range got.stages {
			if stage != pipeline.StageValidate {
				t.Errorf("%s: %s stage = %v, want validate", tc.name, name, stage)
			}
		}
	}
}
