package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/workload"
)

// fuzzServer is one daemon shared by every fuzz iteration, configured
// with tight guard.Limits so pathological inputs fail fast instead of
// consuming the fuzzing budget.
var fuzzServer = sync.OnceValue(func() *Server {
	return New(Config{
		DefaultTimeout: 2 * time.Second,
		Limits: guard.Limits{
			MaxInputBytes: 1 << 16,
			MaxDepth:      64,
			MaxNodes:      1 << 12,
			MaxTypes:      256,
		},
	})
})

// FuzzServeRequest fuzzes the JSON decode + validate + execute path of
// /v1/translate and /v1/migrate under guard.Limits. It drives the
// handler bodies directly — not through the api() wrapper — so a panic
// anywhere in decoding, DTD/embedding/query parsing or mapping reaches
// the fuzzer instead of being swallowed by the recovery layer. Every
// error must classify to a known status; anything else is a bug in the
// error taxonomy.
func FuzzServeRequest(f *testing.F) {
	pair := schemaPair{
		SourceDTD: workload.ClassDTD().String(),
		TargetDTD: workload.SchoolDTD().String(),
	}
	emb := workload.ClassEmbedding().Marshal()
	valid := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	// Well-formed requests keep the fuzzer exploring the deep path.
	f.Add(valid(TranslateRequest{schemaPair: pair, Embedding: emb, Query: "class/cno/text()"}))
	f.Add(valid(MigrateRequest{schemaPair: pair, Embedding: emb, Document: "<db><class><cno>c</cno><title>t</title><type><project>p</project></type></class></db>"}))
	f.Add(valid(MigrateRequest{schemaPair: pair, Embedding: emb, Document: "<db/>", Invert: true,
		Budget: Budget{TimeoutMS: 50, MaxNodes: 16}}))
	// Malformed shapes seed the failure paths.
	f.Add([]byte(`{`))
	f.Add([]byte(`{"query":1}`))
	f.Add([]byte(`{"source_dtd":"<!ELEMENT a (#PCDATA)>","target_dtd":"<!ELEMENT"}`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`{"document":"` + strings.Repeat("<a>", 100) + `"}`))
	f.Add([]byte(`{"budget":{"timeout_ms":-5,"max_nodes":1}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{} trailing`))

	okStatus := map[int]bool{400: true, 404: true, 413: true, 422: true, 429: true, 500: true, 503: true, 504: true}
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, h := range []struct {
			path string
			fn   func(r *httptest.ResponseRecorder, body string) (any, error)
		}{
			{"/v1/translate", func(_ *httptest.ResponseRecorder, body string) (any, error) {
				r := httptest.NewRequest("POST", "/v1/translate", strings.NewReader(body))
				return s.handleTranslate(r.Context(), r)
			}},
			{"/v1/migrate", func(_ *httptest.ResponseRecorder, body string) (any, error) {
				r := httptest.NewRequest("POST", "/v1/migrate", strings.NewReader(body))
				return s.handleMigrate(r.Context(), r)
			}},
		} {
			out, err := h.fn(httptest.NewRecorder(), string(data))
			if err != nil {
				ae := toAPIError(err)
				if !okStatus[ae.status] {
					t.Fatalf("%s: error %v maps to unexpected status %d", h.path, err, ae.status)
				}
				if ae.code == "" || ae.msg == "" {
					t.Fatalf("%s: error %v lost its code or message", h.path, err)
				}
				continue
			}
			if out == nil {
				t.Fatalf("%s: nil response with nil error", h.path)
			}
			if _, err := json.Marshal(out); err != nil {
				t.Fatalf("%s: success response does not marshal: %v", h.path, err)
			}
		}
	})
}
