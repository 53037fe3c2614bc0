package repro

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var listenLine = regexp.MustCompile(`debug server listening on http://(\S+)/metrics`)

// TestCLITelemetryEndToEnd is the acceptance path for the telemetry
// layer: a batch run with -debug-addr :0 serves live Prometheus
// metrics over HTTP while running, and -trace-out writes a Chrome
// trace with parse, map and encode spans for every document.
func TestCLITelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTool(t, "xse-map")
	dir := makeBatchDir(t, 4)
	outDir := filepath.Join(t.TempDir(), "out")
	traceFile := filepath.Join(t.TempDir(), "trace.json")

	// -via-xslt: this test pins the custom-Transform path's per-stage
	// histograms and spans; the streaming default has its own
	// xse_stream_* instruments (covered in internal/pipeline and
	// internal/embedding).
	cmd := exec.Command(bin, append(xsemapFixtureArgs(),
		"-batch", dir, "-out", outDir, "-j", "2", "-via-xslt",
		"-debug-addr", "127.0.0.1:0",
		"-debug-linger", "5s",
		"-trace-out", traceFile,
	)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The CLI announces the resolved :0 address on stderr before the
	// batch starts; scrape it during the linger window.
	var addr string
	var tail strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		tail.WriteString(line + "\n")
		if m := listenLine.FindStringSubmatch(line); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no debug-server announcement on stderr:\n%s", tail.String())
	}

	get := func(path string) string {
		t.Helper()
		var lastErr error
		for i := 0; i < 50; i++ {
			resp, err := http.Get("http://" + addr + path)
			if err == nil {
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil {
					return string(body)
				}
			}
			lastErr = err
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("GET %s never succeeded: %v", path, lastErr)
		return ""
	}

	metrics := waitFor(t, func() (string, bool) {
		body := get("/metrics")
		return body, strings.Contains(body, "xse_pipeline_docs_total 4")
	})
	checkPrometheusShape(t, metrics)
	for _, want := range []string{
		"# TYPE xse_pipeline_docs_total counter",
		"xse_pipeline_docs_ok_total 4",
		"# TYPE xse_pipeline_parse_seconds histogram",
		`xse_pipeline_parse_seconds_bucket{le="+Inf"} 4`,
		"xse_translate_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	var jsonOut []map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &jsonOut); err != nil {
		t.Errorf("/metrics.json is not valid JSON: %v", err)
	}
	if !strings.Contains(get("/debug/vars"), `"xse"`) {
		t.Error("/debug/vars does not publish the xse expvar")
	}

	// Drain stderr so the child never blocks on a full pipe, then wait.
	go io.Copy(io.Discard, stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("xse-map exited with %v", err)
	}

	// The trace must hold parse, map and encode spans for each of the
	// four documents, on the workers' lanes.
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int64   `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	lanes := map[int64]bool{}
	for _, e := range trace.TraceEvents {
		byName[e.Name]++
		if e.Name == "pipeline.worker" {
			lanes[e.Tid] = true
		}
	}
	for _, stage := range []string{"pipeline.parse", "pipeline.map", "pipeline.encode", "pipeline.doc"} {
		if byName[stage] != 4 {
			t.Errorf("trace has %d %s spans, want 4 (all: %v)", byName[stage], stage, byName)
		}
	}
	if len(lanes) != 2 {
		t.Errorf("worker spans occupy %d lanes, want 2 (-j 2)", len(lanes))
	}
}

// waitFor polls cond until it reports done or a deadline passes,
// returning the last observed value.
func waitFor(t *testing.T, cond func() (string, bool)) string {
	t.Helper()
	deadline := time.Now().Add(4 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		v, done := cond()
		last = v
		if done {
			return v
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("condition never satisfied; last value:\n%s", last)
	return last
}

// checkPrometheusShape validates exposition-format invariants that a
// real scraper depends on: every sample line's family has exactly one
// preceding HELP and TYPE, and histogram bucket counts are cumulative
// and end in +Inf.
func checkPrometheusShape(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	helped := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			continue
		}
		if line == "" {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("sample %q has no TYPE header", line)
		}
	}
	for family, n := range helped {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", family, n)
		}
	}
}

// TestCLIProfileFlags: -cpuprofile and -memprofile write non-empty
// pprof files on a successful single-document run.
func TestCLIProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTool(t, "xse-map")
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	mem := filepath.Join(dir, "mem.pb")
	out, code := runExit(t, bin, append(xsemapFixtureArgs(),
		"-cpuprofile", cpu, "-memprofile", mem, "testdata/xsemap/doc.xml")...)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

// TestCLITraceOnFatalExit: a run that dies on a bad document still
// flushes the trace file, because fatal exits route through the
// telemetry cleanup hook.
func TestCLITraceOnFatalExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTool(t, "xse-map")
	bad := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(bad, []byte("<db><class>"), 0o644); err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out, code := runExit(t, bin, append(xsemapFixtureArgs(), "-trace-out", traceFile, bad)...)
	if code != 3 {
		t.Fatalf("exit = %d, want 3\n%s", code, out)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace not written on fatal exit: %v", err)
	}
	var trace map[string]any
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Errorf("trace file invalid after fatal exit: %v", err)
	}
}
