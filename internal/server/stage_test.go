package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/internal/xmltree"
)

// requestEvent posts body to path under the correlation ID id and
// returns the request's wide event from /debug/events.
func requestEvent(t *testing.T, s *Server, path, id string, body any) map[string]any {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", "http://"+s.Addr()+path, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw)
	}
	var events []map[string]any
	getJSON(t, s, "/debug/events?event=request&request_id="+id, &events)
	if len(events) != 1 {
		t.Fatalf("%s: %d events for %s, want 1", path, len(events), id)
	}
	return events[0]
}

// TestRequestStagesCoverLatency: on a cold /v1/embed, a /v1/translate
// that misses both caches and a JSON /v1/migrate of a 4,000+ node
// document, the server's own top-level stage fields (admission,
// decode, lookup, work, respond) account for 95–100% of the request's
// latency_ms; the library stages nested inside them (search_ms,
// translate_ms) are on the event too but not counted.
func TestRequestStagesCoverLatency(t *testing.T) {
	// A collection's stop-the-world pause can land between two stages
	// and is no gap in the instrumentation; keep the collector out of
	// the three requests.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := testServer(t, Config{})
	run := time.Now().UnixNano() // fresh IDs for -count=N in one process

	auction := workload.AuctionEmbedding()
	pair := schemaPair{SourceDTD: auction.Source.String(), TargetDTD: auction.Target.String()}
	r := rand.New(rand.NewSource(5))
	var doc *xmltree.Tree
	for doc == nil || doc.Size() < 4000 {
		doc = xmltree.MustGenerate(auction.Source, r, xmltree.GenOptions{StarMax: 40, DepthBudget: 7})
	}

	embedEv := requestEvent(t, s, "/v1/embed", fmt.Sprint("stage-embed-", run),
		EmbedRequest{schemaPair: pair, Att: "uniform", Seed: run%1000 + 1, Restarts: 60})
	transEv := requestEvent(t, s, "/v1/translate", fmt.Sprint("stage-translate-", run),
		TranslateRequest{schemaPair: pair, Embedding: auction.Marshal(),
			Query: `people//interest`})
	migrateEv := requestEvent(t, s, "/v1/migrate", fmt.Sprint("stage-migrate-", run),
		MigrateRequest{schemaPair: pair, Embedding: auction.Marshal(), Document: doc.String()})

	top := []string{"queue_wait_ms", "decode_ms", "lookup_ms", "work_ms", "respond_ms"}
	for _, c := range []struct {
		name   string
		ev     map[string]any
		stages []string // top-level stages the route runs
		nested string   // a library stage inside them
	}{
		{"embed", embedEv, []string{"queue_wait_ms", "decode_ms", "lookup_ms", "respond_ms"}, "search_ms"},
		{"translate", transEv, top, "translate_ms"},
		{"migrate", migrateEv, top, ""},
	} {
		latency, ok := c.ev["latency_ms"].(float64)
		if !ok || latency <= 0 {
			t.Fatalf("%s: latency_ms = %v", c.name, c.ev["latency_ms"])
		}
		sum := 0.0
		for _, k := range c.stages {
			v, ok := c.ev[k].(float64)
			if !ok {
				t.Errorf("%s: event has no %s: %v", c.name, k, c.ev)
			}
			sum += v
		}
		if cover := sum / latency; cover < 0.95 || cover > 1 {
			t.Errorf("%s: stage fields sum to %.4f ms of latency_ms %.4f (%.1f%%), want 95-100%%: %v",
				c.name, sum, latency, 100*cover, c.ev)
		}
		if c.nested != "" {
			if _, ok := c.ev[c.nested].(float64); !ok {
				t.Errorf("%s: event has no nested %s: %v", c.name, c.nested, c.ev)
			}
		}
		t.Logf("%s: %.1f%% of %.3f ms", c.name, 100*sum/latency, latency)
	}
}
