package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one command into a temp dir and returns its path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

// xsemapFixtureArgs returns the -mapping/-source/-target flags for the
// checked-in golden fixture set.
func xsemapFixtureArgs() []string {
	return []string{
		"-mapping", "testdata/xsemap/map.xse",
		"-source", "testdata/xsemap/class.dtd",
		"-target", "testdata/xsemap/school.dtd",
	}
}

// TestCLIGoldenOutputs pins the xse-map output byte for byte: forward
// σd, inverse σd⁻¹ and the serialized stylesheet must match the golden
// files captured before the data-plane rework, and the stylesheet run
// (-via-xslt, single-document and batch, both directions) must match
// the same goldens.
func TestCLIGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTool(t, "xse-map")
	golden := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata/xsemap", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append(xsemapFixtureArgs(), args...)...).Output()
		if err != nil {
			t.Fatalf("xse-map %s: %v", strings.Join(args, " "), err)
		}
		return string(out)
	}

	forward := run("testdata/xsemap/doc.xml")
	if want := golden("forward.golden"); forward != want {
		t.Errorf("forward output diverged from forward.golden (%d vs %d bytes)", len(forward), len(want))
	}

	fwdFile := filepath.Join(t.TempDir(), "fwd.xml")
	if err := os.WriteFile(fwdFile, []byte(forward), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := run("-invert", fwdFile), golden("inverse.golden"); got != want {
		t.Errorf("inverse output diverged from inverse.golden (%d vs %d bytes)", len(got), len(want))
	}

	if got, want := run("-xslt"), golden("xslt.golden"); got != want {
		t.Errorf("stylesheet output diverged from xslt.golden (%d vs %d bytes)", len(got), len(want))
	}

	if got, want := run("-via-xslt", "testdata/xsemap/doc.xml"), golden("forward.golden"); got != want {
		t.Errorf("via-xslt output diverged from forward.golden (%d vs %d bytes)", len(got), len(want))
	}
	if got, want := run("-invert", "-via-xslt", fwdFile), golden("inverse.golden"); got != want {
		t.Errorf("-invert -via-xslt output diverged from inverse.golden (%d vs %d bytes)", len(got), len(want))
	}

	// Batch -via-xslt: forward over copies of doc.xml, then inverse over
	// the forward outputs.
	fwdDir := filepath.Join(t.TempDir(), "fwd")
	backDir := filepath.Join(t.TempDir(), "back")
	for _, leg := range []struct {
		name   string
		args   []string
		outDir string
		golden string
	}{
		{"-via-xslt -batch", []string{"-via-xslt", "-batch", makeBatchDir(t, 2), "-out", fwdDir}, fwdDir, "forward.golden"},
		{"-invert -via-xslt -batch", []string{"-invert", "-via-xslt", "-batch", fwdDir, "-out", backDir}, backDir, "inverse.golden"},
	} {
		run(leg.args...)
		want := golden(leg.golden)
		for i := 0; i < 2; i++ {
			data, err := os.ReadFile(filepath.Join(leg.outDir, fmt.Sprintf("doc%02d.xml", i)))
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != want {
				t.Errorf("%s: doc%02d.xml diverged from %s", leg.name, i, leg.golden)
			}
		}
	}
}

// runExit executes the binary and returns combined output and exit
// code (failing the test on non-exit errors).
func runExit(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("%s: %v\n%s", strings.Join(args, " "), err, out)
	return "", 0
}

// makeBatchDir populates a directory with copies of the fixture
// document; returns the dir.
func makeBatchDir(t *testing.T, n int) string {
	t.Helper()
	doc, err := os.ReadFile("testdata/xsemap/doc.xml")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("doc%02d.xml", i)), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCLIBatchMode drives xse-map -batch: outputs land in -out, a
// malformed document fails alone with exit code 3, worker counts do
// not change outputs, and the summary reports throughput.
func TestCLIBatchMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTool(t, "xse-map")
	forwardGolden, err := os.ReadFile("testdata/xsemap/forward.golden")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("clean batch", func(t *testing.T) {
		dir := makeBatchDir(t, 5)
		outDir := filepath.Join(t.TempDir(), "out")
		stderr, code := runExit(t, bin, append(xsemapFixtureArgs(), "-batch", dir, "-out", outDir, "-j", "4")...)
		if code != 0 {
			t.Fatalf("exit = %d, want 0\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "docs/sec") || !strings.Contains(stderr, "MB/sec") {
			t.Errorf("summary lacks throughput figures:\n%s", stderr)
		}
		for i := 0; i < 5; i++ {
			data, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("doc%02d.xml", i)))
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(forwardGolden) {
				t.Errorf("doc%02d.xml batch output differs from single-document golden", i)
			}
		}
	})

	t.Run("mixed validity", func(t *testing.T) {
		dir := makeBatchDir(t, 3)
		if err := os.WriteFile(filepath.Join(dir, "broken.xml"), []byte("<db><class>"), 0o644); err != nil {
			t.Fatal(err)
		}
		outDir := filepath.Join(t.TempDir(), "out")
		stderr, code := runExit(t, bin, append(xsemapFixtureArgs(), "-batch", dir, "-out", outDir, "-j", "2")...)
		if code != 3 {
			t.Fatalf("exit = %d, want 3 (invalid input)\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "broken.xml") {
			t.Errorf("stderr does not name the failing document:\n%s", stderr)
		}
		if !strings.Contains(stderr, "4 docs (1 failed)") {
			t.Errorf("summary = %q, want 4 docs (1 failed)", stderr)
		}
		// The healthy documents still migrated.
		for i := 0; i < 3; i++ {
			if _, err := os.Stat(filepath.Join(outDir, fmt.Sprintf("doc%02d.xml", i))); err != nil {
				t.Errorf("doc%02d.xml missing: %v", i, err)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "broken.xml")); err == nil {
			t.Error("broken.xml produced an output file")
		}
	})

	t.Run("worker equivalence", func(t *testing.T) {
		dir := makeBatchDir(t, 8)
		read := func(workers int) map[string]string {
			outDir := filepath.Join(t.TempDir(), "out")
			_, code := runExit(t, bin, append(xsemapFixtureArgs(), "-batch", dir, "-out", outDir, "-j", fmt.Sprint(workers))...)
			if code != 0 {
				t.Fatalf("-j %d exit = %d", workers, code)
			}
			outs := map[string]string{}
			entries, err := os.ReadDir(outDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(outDir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				outs[e.Name()] = string(data)
			}
			return outs
		}
		j1, j8 := read(1), read(8)
		if len(j1) != 8 || len(j8) != 8 {
			t.Fatalf("output counts: j1=%d j8=%d, want 8", len(j1), len(j8))
		}
		for name, want := range j1 {
			if j8[name] != want {
				t.Errorf("%s: -j 1 and -j 8 outputs differ", name)
			}
		}
	})

	t.Run("inverse batch", func(t *testing.T) {
		// Migrate forward, then invert the whole output directory; the
		// round trip recovers the source bytes.
		dir := makeBatchDir(t, 3)
		fwdDir := filepath.Join(t.TempDir(), "fwd")
		backDir := filepath.Join(t.TempDir(), "back")
		if _, code := runExit(t, bin, append(xsemapFixtureArgs(), "-batch", dir, "-out", fwdDir)...); code != 0 {
			t.Fatalf("forward exit = %d", code)
		}
		if _, code := runExit(t, bin, append(xsemapFixtureArgs(), "-invert", "-batch", fwdDir, "-out", backDir)...); code != 0 {
			t.Fatalf("inverse exit = %d", code)
		}
		// The recovered tree equals the source tree; its serialization is
		// the canonical indented form pinned by inverse.golden.
		want, err := os.ReadFile("testdata/xsemap/inverse.golden")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			data, err := os.ReadFile(filepath.Join(backDir, fmt.Sprintf("doc%02d.xml", i)))
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(want) {
				t.Errorf("doc%02d.xml: σd⁻¹(σd(T)) differs from inverse.golden", i)
			}
		}
	})
}

// TestCLIExitCodes pins the exit-code table: 0 success, 2 usage,
// 3 invalid input, 4 timeout — for both single and batch modes.
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTool(t, "xse-map")
	args := xsemapFixtureArgs()

	if _, code := runExit(t, bin, append(args, "testdata/xsemap/doc.xml")...); code != 0 {
		t.Errorf("success: exit = %d, want 0", code)
	}
	if _, code := runExit(t, bin, "-source", "testdata/xsemap/class.dtd"); code != 2 {
		t.Errorf("usage: exit = %d, want 2", code)
	}
	if _, code := runExit(t, bin, append(args, "-batch", t.TempDir(), "doc.xml")...); code != 2 {
		t.Errorf("batch+positional: exit = %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(bad, []byte("<db><class>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runExit(t, bin, append(args, bad)...); code != 3 {
		t.Errorf("invalid doc: exit = %d, want 3", code)
	}
	if _, code := runExit(t, bin, append(args, filepath.Join(t.TempDir(), "missing.xml"))...); code != 3 {
		t.Errorf("missing doc: exit = %d, want 3", code)
	}
	badTarget := filepath.Join(t.TempDir(), "bad-target.xml")
	if err := os.WriteFile(badTarget, []byte("<school><courses>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runExit(t, bin, append(args, "-invert", badTarget)...); code != 3 {
		t.Errorf("invalid -invert doc: exit = %d, want 3", code)
	}
	// A failing document leaves no -o file behind.
	outFile := filepath.Join(t.TempDir(), "out.xml")
	if _, code := runExit(t, bin, append(args, "-o", outFile, bad)...); code != 3 {
		t.Errorf("invalid doc with -o: exit = %d, want 3", code)
	}
	if _, err := os.Stat(outFile); !os.IsNotExist(err) {
		t.Errorf("invalid doc with -o left %s behind (stat err %v)", outFile, err)
	}
	if _, code := runExit(t, bin, append(args, "-batch", t.TempDir())...); code != 3 {
		t.Errorf("empty batch dir: exit = %d, want 3", code)
	}
	stderr, code := runExit(t, bin, append(args, "-timeout", "1ns", "testdata/xsemap/doc.xml")...)
	if code != 4 {
		t.Errorf("timeout: exit = %d, want 4\n%s", code, stderr)
	}
	dir := makeBatchDir(t, 4)
	stderr, code = runExit(t, bin, append(args, "-timeout", "1ns", "-batch", dir)...)
	if code != 4 {
		t.Errorf("batch timeout: exit = %d, want 4\n%s", code, stderr)
	}
}

// TestCLIQueryCacheStats drives xse-query with repeated queries: the
// duplicate translation must hit the cache and -v must surface the
// counters.
func TestCLIQueryCacheStats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTool(t, "xse-query")
	out, code := runExit(t, bin, append(xsemapFixtureArgs(),
		"-v",
		"-query", "class/cno/text()",
		"-query", "class/title",
		"-query", "class/cno/text()",
	)...)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "cache:      1 hits, 2 misses, 0 waits, 2 entries") {
		t.Errorf("cache stats line missing or wrong:\n%s", out)
	}
	// -v also renders the process registry through obs.WriteSummary.
	if !strings.Contains(out, "xse_translate_cache_misses_total") {
		t.Errorf("-v summary missing registry counters:\n%s", out)
	}
	// Timeout path: exit 4 via context, not a watchdog.
	_, code = runExit(t, bin, append(xsemapFixtureArgs(),
		"-timeout", "1ns", "-query", "class/cno/text()", "-source-doc", "testdata/xsemap/doc.xml")...)
	if code != 4 {
		t.Errorf("timeout exit = %d, want 4", code)
	}
}
