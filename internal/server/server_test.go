package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/search"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// classDocXML is an instance of the class schema (Figure 1 of the
// paper), the shared fixture of the endpoint tests.
const classDocXML = `<db>
  <class><cno>CS331</cno><title>DB</title>
    <type><regular><prereq>
      <class><cno>CS210</cno><title>Algo</title><type><project>p</project></type></class>
    </prereq></regular></type>
  </class>
</db>`

// testServer starts a daemon on a loopback port and tears it down with
// the test.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// postJSON posts body (marshaled) to the server path and decodes the
// JSON response.
func postJSON(t *testing.T, s *Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: invalid JSON response %q: %v", path, raw, err)
		}
	}
	return resp, out
}

// errorCode extracts the error envelope code.
func errorCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func classPair() schemaPair {
	return schemaPair{
		SourceDTD: workload.ClassDTD().String(),
		TargetDTD: workload.SchoolDTD().String(),
	}
}

// TestEndToEndPipeline drives the paper's full loop over HTTP: find an
// embedding, translate a query across it, migrate a document forward
// and back, and check invertibility.
func TestEndToEndPipeline(t *testing.T) {
	s := testServer(t, Config{})

	resp, body := postJSON(t, s, "/v1/embed", EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 60})
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/embed status = %d, body %v", resp.StatusCode, body)
	}
	embText, _ := body["embedding"].(string)
	if !strings.Contains(embText, "type class ->") {
		t.Fatalf("embed response carries no mapping text: %v", body)
	}
	if cached, _ := body["cached"].(bool); cached {
		t.Error("first embed reported cached=true")
	}

	resp, body = postJSON(t, s, "/v1/translate", TranslateRequest{
		schemaPair: classPair(),
		Embedding:  embText,
		Query:      `class/cno/text()`,
		ShowRegex:  true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/translate status = %d, body %v", resp.StatusCode, body)
	}
	if sz, _ := body["automaton_size"].(float64); sz <= 0 {
		t.Errorf("automaton_size = %v, want > 0", body["automaton_size"])
	}

	resp, body = postJSON(t, s, "/v1/migrate", MigrateRequest{
		schemaPair: classPair(),
		Embedding:  embText,
		Document:   classDocXML,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/migrate status = %d, body %v", resp.StatusCode, body)
	}
	migrated, _ := body["document"].(string)
	if migrated == "" {
		t.Fatal("migrate returned an empty document")
	}

	// Round-trip: σd⁻¹(σd(T)) = T.
	resp, body = postJSON(t, s, "/v1/migrate", MigrateRequest{
		schemaPair: classPair(),
		Embedding:  embText,
		Document:   migrated,
		Invert:     true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("invert migrate status = %d, body %v", resp.StatusCode, body)
	}
	back, _ := body["document"].(string)
	want, err := xmltree.ParseString(classDocXML)
	if err != nil {
		t.Fatal(err)
	}
	got, err := xmltree.ParseString(back)
	if err != nil {
		t.Fatalf("inverted document does not re-parse: %v", err)
	}
	if !xmltree.Equal(want, got) {
		t.Errorf("invert(migrate(T)) != T:\n%s", back)
	}

	// The second translate over the same pair reuses the resident
	// artifacts.
	resp, body = postJSON(t, s, "/v1/translate", TranslateRequest{
		schemaPair: classPair(),
		Embedding:  embText,
		Query:      `class/title/text()`,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("second translate status = %d", resp.StatusCode)
	}
	if cached, _ := body["cached"].(bool); !cached {
		t.Error("second request over the same pair missed the artifact cache")
	}
}

// TestEmbedCachedSecondRequest: an identical embed request is served
// from the artifact cache.
func TestEmbedCachedSecondRequest(t *testing.T) {
	s := testServer(t, Config{})
	req := EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 60}

	hitsBefore := mCacheHits.Value()
	resp, body := postJSON(t, s, "/v1/embed", req)
	if resp.StatusCode != 200 {
		t.Fatalf("cold embed status = %d: %v", resp.StatusCode, body)
	}
	cold, _ := body["embedding"].(string)

	resp, body = postJSON(t, s, "/v1/embed", req)
	if resp.StatusCode != 200 {
		t.Fatalf("warm embed status = %d", resp.StatusCode)
	}
	if cached, _ := body["cached"].(bool); !cached {
		t.Error("second identical embed not served from cache")
	}
	if warm, _ := body["embedding"].(string); warm != cold {
		t.Error("cached embed returned a different mapping")
	}
	if mCacheHits.Value() == hitsBefore {
		t.Error("xse_server_cache_hits_total did not increase")
	}

	// A different seed is a different artifact.
	resp, body = postJSON(t, s, "/v1/embed", EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 61})
	if resp.StatusCode != 200 {
		t.Fatalf("distinct-options embed status = %d", resp.StatusCode)
	}
	if cached, _ := body["cached"].(bool); cached {
		t.Error("distinct options wrongly shared a cache entry")
	}
}

// TestEmbedKeyIgnoresSpelling: requests that spell the same search
// differently — a defaulted or aliased heuristic, a defaulted att, a
// threshold under uniform att, which ignores it — share one artifact,
// while a lexical threshold still tells two searches apart.
func TestEmbedKeyIgnoresSpelling(t *testing.T) {
	s := testServer(t, Config{})
	self := schemaPair{SourceDTD: workload.ClassDTD().String(), TargetDTD: workload.ClassDTD().String()}
	th := func(v float64) *float64 { return &v }
	for i, tc := range []struct {
		name          string
		first, second EmbedRequest
		shared        bool
	}{
		{"default heuristic", EmbedRequest{Heuristic: ""}, EmbedRequest{Heuristic: "random"}, true},
		{"heuristic alias", EmbedRequest{Heuristic: "quality"}, EmbedRequest{Heuristic: "QualityOrdered"}, true},
		{"default att", EmbedRequest{Att: ""}, EmbedRequest{Att: "lexical"}, true},
		{"uniform threshold", EmbedRequest{Att: "uniform", Threshold: th(0.2)}, EmbedRequest{Att: "uniform", Threshold: th(0.9)}, true},
		{"lexical threshold", EmbedRequest{Threshold: th(0.5)}, EmbedRequest{Threshold: th(0.9)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A distinct seed per case keeps the cases' artifacts apart.
			seed := int64(100 + i)
			for n, req := range []EmbedRequest{tc.first, tc.second} {
				req.schemaPair, req.Seed = self, seed
				resp, body := postJSON(t, s, "/v1/embed", req)
				if resp.StatusCode != 200 {
					t.Fatalf("request %d status = %d: %v", n, resp.StatusCode, body)
				}
				cached, _ := body["cached"].(bool)
				if want := n == 1 && tc.shared; cached != want {
					t.Errorf("request %d cached = %v, want %v", n, cached, want)
				}
			}
		})
	}
}

// TestEmbedNotFound: a target that cannot embed the source answers
// 422 with code not_found (the CLI's exit 5).
func TestEmbedNotFound(t *testing.T) {
	s := testServer(t, Config{})
	resp, body := postJSON(t, s, "/v1/embed", EmbedRequest{
		schemaPair: schemaPair{
			SourceDTD: workload.ClassDTD().String(),
			TargetDTD: "<!ELEMENT lone (#PCDATA)>",
		},
		Heuristic: "exact",
	})
	if resp.StatusCode != 422 {
		t.Fatalf("status = %d, want 422; body %v", resp.StatusCode, body)
	}
	if code := errorCode(t, body); code != "not_found" {
		t.Errorf("code = %q, want not_found", code)
	}
}

// TestParseHeuristic: requests accept the names search.ParseHeuristic
// does, an absent name selects Random, and an unknown one is a 400.
func TestParseHeuristic(t *testing.T) {
	for name, want := range map[string]search.Heuristic{
		"":               search.Random,
		"quality":        search.QualityOrdered,
		"qualityordered": search.QualityOrdered,
		"IndepSet":       search.IndepSet,
	} {
		if got, err := parseHeuristic(name); err != nil || got != want {
			t.Errorf("parseHeuristic(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := parseHeuristic("greedy")
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
		t.Errorf("parseHeuristic(greedy) error = %v, want a 400 apiError", err)
	}
}

// TestErrorStatuses covers the error→status table rows reachable
// without chaos injection.
func TestErrorStatuses(t *testing.T) {
	s := testServer(t, Config{Limits: guard.Limits{MaxInputBytes: 1 << 16}})
	addr := "http://" + s.Addr()

	t.Run("malformed JSON 400", func(t *testing.T) {
		resp, err := http.Post(addr+"/v1/translate", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown field 400", func(t *testing.T) {
		resp, _ := postJSON(t, s, "/v1/migrate", map[string]any{"bogus_field": 1})
		if resp.StatusCode != 400 {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("missing query 400", func(t *testing.T) {
		resp, body := postJSON(t, s, "/v1/translate", TranslateRequest{
			schemaPair: classPair(), Embedding: workload.ClassEmbedding().Marshal(),
		})
		if resp.StatusCode != 400 || errorCode(t, body) != "invalid" {
			t.Errorf("status = %d code = %q, want 400 invalid", resp.StatusCode, errorCode(t, body))
		}
	})
	t.Run("malformed DTD 400", func(t *testing.T) {
		resp, _ := postJSON(t, s, "/v1/embed", EmbedRequest{
			schemaPair: schemaPair{SourceDTD: "<!ELEMENT", TargetDTD: "<!ELEMENT a (#PCDATA)>"},
		})
		if resp.StatusCode != 400 {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("GET 405", func(t *testing.T) {
		resp, err := http.Get(addr + "/v1/embed")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 405 {
			t.Errorf("status = %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "POST" {
			t.Errorf("Allow = %q, want POST", allow)
		}
	})
	t.Run("oversized body 413", func(t *testing.T) {
		big := `{"document":"` + strings.Repeat("x", 1<<17)
		resp, err := http.Post(addr+"/v1/migrate", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 413 {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("per-request limit 413", func(t *testing.T) {
		resp, body := postJSON(t, s, "/v1/migrate", MigrateRequest{
			schemaPair: classPair(),
			Embedding:  workload.ClassEmbedding().Marshal(),
			Document:   classDocXML,
			Budget:     Budget{MaxNodes: 2},
		})
		if resp.StatusCode != 413 || errorCode(t, body) != "limit" {
			t.Errorf("status = %d code = %q, want 413 limit", resp.StatusCode, errorCode(t, body))
		}
	})
	t.Run("unknown path 404", func(t *testing.T) {
		resp, err := http.Get(addr + "/v1/nothing")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("status = %d, want 404", resp.StatusCode)
		}
	})
}

// TestHealthAndMetricsEndpoints: the probe and observability surfaces
// share the service listener.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	s := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/metrics.json", "/debug/vars"} {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if path == "/metrics" && !bytes.Contains(body, []byte("xse_server_requests_total")) {
			t.Errorf("/metrics does not expose the server family:\n%.400s", body)
		}
	}
}

// TestArtifactCacheEviction: the artifact home is bounded; the LRU
// entry is evicted and rebuilt on return.
func TestArtifactCacheEviction(t *testing.T) {
	s := testServer(t, Config{CacheSize: 1})
	reqA := EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 60}
	reqB := EmbedRequest{schemaPair: classPair(), Att: "uniform", Seed: 3, Restarts: 61}

	if resp, _ := postJSON(t, s, "/v1/embed", reqA); resp.StatusCode != 200 {
		t.Fatalf("embed A: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, s, "/v1/embed", reqB); resp.StatusCode != 200 {
		t.Fatalf("embed B: %d", resp.StatusCode)
	}
	resp, body := postJSON(t, s, "/v1/embed", reqA)
	if resp.StatusCode != 200 {
		t.Fatalf("embed A again: %d", resp.StatusCode)
	}
	if cached, _ := body["cached"].(bool); cached {
		t.Error("evicted artifact reported cached=true")
	}
	if got := s.artifacts.Len(); got > 1 {
		t.Errorf("artifact cache holds %d entries, want <= 1", got)
	}
}

// TestBudgetTimeout: a request-level wall-clock budget cuts a slow
// stage short with 504/timeout.
func TestBudgetTimeout(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModeLatency, Latency: 10 * time.Second,
	}))
	defer restore()
	s := testServer(t, Config{})

	start := time.Now()
	resp, body := postJSON(t, s, "/v1/migrate", MigrateRequest{
		schemaPair: classPair(),
		Embedding:  workload.ClassEmbedding().Marshal(),
		Document:   classDocXML,
		Budget:     Budget{TimeoutMS: 100},
	})
	if resp.StatusCode != 504 || errorCode(t, body) != "timeout" {
		t.Fatalf("status = %d code = %q, want 504 timeout", resp.StatusCode, errorCode(t, body))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("budget did not bound the request (took %s)", elapsed)
	}
}

// TestTimeoutClampedToMax: a request cannot buy more time than
// -max-timeout allows.
func TestTimeoutClampedToMax(t *testing.T) {
	restore := guard.SetFaultPlan(guard.NewFaultPlan(guard.FaultSpec{
		Stage: "server.migrate", Mode: guard.FaultModeLatency, Latency: time.Hour,
	}))
	defer restore()
	s := testServer(t, Config{MaxTimeout: 100 * time.Millisecond})

	start := time.Now()
	resp, _ := postJSON(t, s, "/v1/migrate", MigrateRequest{
		schemaPair: classPair(),
		Embedding:  workload.ClassEmbedding().Marshal(),
		Document:   classDocXML,
		Budget:     Budget{TimeoutMS: int(time.Hour / time.Millisecond)},
	})
	if resp.StatusCode != 504 {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("max-timeout clamp ineffective (took %s)", elapsed)
	}
}

func TestBudgetTighten(t *testing.T) {
	base := guard.Limits{MaxInputBytes: 1000, MaxNodes: -1, MaxDepth: 50, MaxTypes: 10}
	got := Budget{MaxInputBytes: 2000, MaxNodes: 7, MaxDepth: 20}.tighten(base)
	if got.MaxInputBytes != 1000 {
		t.Errorf("MaxInputBytes = %d, want 1000 (request may not widen)", got.MaxInputBytes)
	}
	if got.MaxNodes != 7 {
		t.Errorf("MaxNodes = %d, want 7 (request bounds an unlimited base)", got.MaxNodes)
	}
	if got.MaxDepth != 20 {
		t.Errorf("MaxDepth = %d, want 20 (request tightens)", got.MaxDepth)
	}
	if got.MaxTypes != 10 {
		t.Errorf("MaxTypes = %d, want 10 (unset request field keeps base)", got.MaxTypes)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxInFlight <= 0 || c.MaxQueue <= 0 || c.QueueWait <= 0 ||
		c.DefaultTimeout <= 0 || c.MaxTimeout <= 0 || c.CacheSize <= 0 {
		t.Errorf("zero Config left unresolved fields: %+v", c)
	}
	if got := (Config{MaxQueue: -1}).withDefaults().MaxQueue; got != 0 {
		t.Errorf("MaxQueue -1 resolves to %d, want 0 (no queue)", got)
	}
}

func TestArtifactKeyFraming(t *testing.T) {
	if artifactKey("ab", "c") == artifactKey("a", "bc") {
		t.Error("length framing failed: concatenation collision")
	}
	if artifactKey("x") != artifactKey("x") {
		t.Error("artifactKey not deterministic")
	}
}

// ExampleServer documents minimal programmatic use.
func ExampleServer() {
	s := New(Config{Addr: "127.0.0.1:0", Log: io.Discard})
	if err := s.Start(); err != nil {
		fmt.Println("start:", err)
		return
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err == nil {
		fmt.Println(resp.StatusCode)
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	// Output: 200
}

// multipartForm encodes fields, in order, as a multipart/form-data
// body and returns it with its Content-Type.
func multipartForm(t *testing.T, fields ...[2]string) (string, []byte) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, f := range fields {
		if err := mw.WriteField(f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), body.Bytes()
}

// postMultipart posts the multipart /v1/migrate request made of
// fields, in order, and returns the response and its body.
func postMultipart(t *testing.T, s *Server, fields ...[2]string) (*http.Response, string) {
	t.Helper()
	ct, body := multipartForm(t, fields...)
	return postMigrate(t, s, ct, body)
}

func postMigrate(t *testing.T, s *Server, contentType string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

// TestMigrateMultipartStream: the multipart form streams the document
// through σd or σd⁻¹ and answers raw XML, byte-identical to the JSON
// form's document field, and decodes its fields as strictly as the
// JSON form.
// TestMigrateResponseUnescaped: a JSON response writes the migrated
// document's markup as itself, not as \u003c/\u003e escapes.
func TestMigrateResponseUnescaped(t *testing.T) {
	s := testServer(t, Config{})
	data, err := json.Marshal(MigrateRequest{
		schemaPair: classPair(), Embedding: workload.ClassEmbedding().Marshal(), Document: classDocXML,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.Contains(raw, []byte(`"document":"<`)) || bytes.Contains(raw, []byte(`\u003c`)) {
		t.Errorf("status %d, body %s; want the document's markup unescaped", resp.StatusCode, raw)
	}
}

func TestMigrateMultipartStream(t *testing.T) {
	s := testServer(t, Config{})
	emb := workload.ClassEmbedding()
	pair := classPair()
	fields := [][2]string{
		{"source_dtd", pair.SourceDTD},
		{"target_dtd", pair.TargetDTD},
		{"embedding", emb.Marshal()},
	}
	// with returns the pair fields followed by more.
	with := func(more ...[2]string) [][2]string {
		return append(append([][2]string(nil), fields...), more...)
	}

	resp, body := postJSON(t, s, "/v1/migrate", MigrateRequest{
		schemaPair: pair, Embedding: emb.Marshal(), Document: classDocXML,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("JSON migrate status = %d, body %v", resp.StatusCode, body)
	}
	want, _ := body["document"].(string)
	if want == "" {
		t.Fatal("JSON migrate returned no document")
	}

	mresp, got := postMultipart(t, s, with([2]string{"document", classDocXML})...)
	if mresp.StatusCode != 200 {
		t.Fatalf("multipart migrate status = %d, body %s", mresp.StatusCode, got)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != "application/xml" {
		t.Errorf("Content-Type = %q, want application/xml", ct)
	}
	if got != want {
		t.Errorf("multipart output differs from JSON form:\n got: %q\nwant: %q", got, want)
	}

	t.Run("inverse", func(t *testing.T) {
		src, err := xmltree.ParseString(classDocXML)
		if err != nil {
			t.Fatal(err)
		}
		resp, back := postMultipart(t, s, with([2]string{"invert", "true"}, [2]string{"document", want})...)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d, want 200: %s", resp.StatusCode, back)
		}
		if back != src.String() {
			t.Errorf("multipart σd⁻¹(σd(T)) differs from T:\n got: %q\nwant: %q", back, src.String())
		}
	})
	t.Run("media type is case-insensitive", func(t *testing.T) {
		ct, body := multipartForm(t, with([2]string{"document", classDocXML})...)
		resp, got := postMigrate(t, s, strings.Replace(ct, "multipart/form-data", "Multipart/Form-Data", 1), body)
		if resp.StatusCode != 200 || got != want {
			t.Fatalf("status = %d body = %s, want 200 and the JSON form's document", resp.StatusCode, got)
		}
	})
	t.Run("nonconforming document", func(t *testing.T) {
		resp, body := postMultipart(t, s, with([2]string{"document", "<db><wrong/></db>"})...)
		if resp.StatusCode != 400 {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		if !strings.Contains(body, "instance mapping") {
			t.Errorf("error body %q does not name the mapping stage", body)
		}
	})
	t.Run("malformed document", func(t *testing.T) {
		resp, body := postMultipart(t, s, with([2]string{"document", "<db><cl<"})...)
		if resp.StatusCode != 400 {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		if !strings.Contains(body, "document:") {
			t.Errorf("error body %q does not name the document", body)
		}
	})
	t.Run("missing document part", func(t *testing.T) {
		resp, body := postMultipart(t, s, fields...)
		if resp.StatusCode != 400 || !strings.Contains(body, "no document part") {
			t.Fatalf("status = %d body = %s, want 400 no-document-part", resp.StatusCode, body)
		}
	})
	t.Run("body over the server cap", func(t *testing.T) {
		// The fields fit under the cap and the document alone does
		// too; the body trips the cap while the document streams.
		capped := testServer(t, Config{Limits: guard.Limits{MaxInputBytes: 4000}})
		doc := "<db>" + strings.Repeat("<class><cno>c</cno><title>t</title><type><project>p</project></type></class>", 36) + "</db>"
		resp, body := postMultipart(t, capped, with([2]string{"document", doc})...)
		if resp.StatusCode != 413 {
			t.Fatalf("status = %d, want 413: %s", resp.StatusCode, body)
		}
	})
	t.Run("budget limit", func(t *testing.T) {
		resp, body := postMultipart(t, s, with([2]string{"budget", `{"max_input_bytes": 16}`}, [2]string{"document", classDocXML})...)
		if resp.StatusCode != 413 {
			t.Fatalf("status = %d, want 413: %s", resp.StatusCode, body)
		}
	})
	for _, c := range []struct {
		name   string
		fields [][2]string
		want   string // substring of the error body
	}{
		{"unknown field", with([2]string{"bogus", "1"}, [2]string{"document", classDocXML}), `unknown field \"bogus\"`},
		{"unknown budget key", with([2]string{"budget", `{"timeout_ms": 500, "bogus": 1}`}, [2]string{"document", classDocXML}), `unknown field \"bogus\"`},
		{"invert not a boolean", with([2]string{"invert", "yes"}, [2]string{"document", classDocXML}), "multipart request"},
		{"field after document", with([2]string{"document", classDocXML}, [2]string{"invert", "true"}), `\"invert\" follows the document part`},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postMultipart(t, s, c.fields...)
			if resp.StatusCode != 400 || !strings.Contains(body, c.want) {
				t.Fatalf("status = %d body = %s, want 400 containing %s", resp.StatusCode, body, c.want)
			}
		})
	}
}

// TestMigrateStreamTreeParity: the JSON forward path (streaming) and
// an explicit tree-path migration agree byte for byte.
func TestMigrateStreamTreeParity(t *testing.T) {
	s := testServer(t, Config{})
	emb := workload.ClassEmbedding()
	resp, body := postJSON(t, s, "/v1/migrate", MigrateRequest{
		schemaPair: classPair(), Embedding: emb.Marshal(), Document: classDocXML,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("migrate status = %d, body %v", resp.StatusCode, body)
	}
	got, _ := body["document"].(string)

	doc, err := xmltree.ParseString(classDocXML)
	if err != nil {
		t.Fatal(err)
	}
	res, err := emb.Apply(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != res.Tree.String() {
		t.Errorf("streamed response differs from tree path:\n got: %q\nwant: %q", got, res.Tree.String())
	}
}
