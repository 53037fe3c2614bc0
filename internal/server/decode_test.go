package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/guard"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/workload"
)

// referenceDecode is the streaming decoder decodeJSON's fast path
// stands beside: encoding/json reading the body as it arrives, with
// unknown fields and trailing data rejected. Every status and message
// of decodeJSON must be the one this gives.
func referenceDecode(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return mbe
		}
		return badRequest("invalid JSON request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("trailing data after JSON request object")
	}
	return nil
}

// newBodyRequest builds a POST whose body is capped at limit bytes
// (≤ 0: uncapped), as the api wrapper caps it.
func newBodyRequest(body string, limit int) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/migrate", strings.NewReader(body))
	if limit > 0 {
		r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, int64(limit))
	}
	return r
}

// rendering is an error as the client sees it.
func rendering(err error) string {
	if err == nil {
		return "ok"
	}
	ae := toAPIError(err)
	return http.StatusText(ae.status) + " " + ae.code + ": " + ae.msg
}

// checkDecodeParity decodes body with decodeJSON and with
// referenceDecode into a fresh P each and fails unless both give the
// same rendering and, on success, the same request.
func checkDecodeParity[T any, P request[T]](t *testing.T, body string, limit int) {
	t.Helper()
	got, want := P(new(T)), P(new(T))
	gerr := decodeJSON(newBodyRequest(body, limit), got, limit)
	werr := referenceDecode(newBodyRequest(body, limit), want)
	if rendering(gerr) != rendering(werr) {
		t.Fatalf("%T on %.80q: decodeJSON gives %q, encoding/json %q", got, body, rendering(gerr), rendering(werr))
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T on %.80q: decodeJSON gives %+v, encoding/json %+v", got, body, got, want)
	}
}

// checkFastPath fails if the fast path accepts data into a P that
// encoding/json rejects or decodes differently, and reports whether it
// accepted.
func checkFastPath[T any, P request[T]](t *testing.T, data []byte) bool {
	t.Helper()
	got, want := P(new(T)), P(new(T))
	if !decodeFast(data, got) {
		return false
	}
	if referenceDecode(newBodyRequest(string(data), 0), want) != nil {
		t.Fatalf("%T: fast path accepts %q, encoding/json rejects it", got, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T on %q: fast path gives %+v, encoding/json %+v", got, data, got, want)
	}
	if key, ok := inexactKey(data); ok {
		t.Fatalf("%T: fast path accepts key %q, which only encoding/json's case folding matches", got, key)
	}
	return true
}

// fieldNames are the JSON names of every request field, budget keys
// included.
var fieldNames = func() map[string]bool {
	names := map[string]bool{}
	var walk func(reflect.Type)
	walk = func(t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Anonymous {
				walk(f.Type)
				continue
			}
			names[strings.Split(f.Tag.Get("json"), ",")[0]] = true
		}
	}
	for _, v := range []any{EmbedRequest{}, TranslateRequest{}, MigrateRequest{}, Budget{}} {
		walk(reflect.TypeOf(v))
	}
	return names
}()

// inexactKey returns a key of the valid JSON object data that is not a
// field name byte for byte: the fast path must decline such a body
// even where encoding/json's case folding would decode it alike.
func inexactKey(data []byte) (string, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	key := false // whether the next string token is a key
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", false
		}
		switch tok := tok.(type) {
		case json.Delim:
			key = true // after { a key follows; after }, the next key
			continue
		case string:
			if key && !fieldNames[tok] {
				return tok, true
			}
		}
		key = !key
	}
}

// acceptSeeds are requests the fast path itself must decode, by type:
// with and without a budget, every escape form, valid and lone
// surrogates, raw multi-byte UTF-8 and duplicate keys.
var acceptSeeds = map[string][]string{
	"embed": {
		`{"att":"uniform","heuristic":"quality","seed":-9223372036854775808,"restarts":4,"explain":true,"budget":{}}`,
		`{"source_dtd":"s","target_dtd":"t","seed":-0}`,
	},
	"translate": {
		`{"source_dtd":"s","target_dtd":"t","source_root":"a","target_root":"b","embedding":"e","query":"a/b","show_regex":true,"no_optimize":false}`,
	},
	"migrate": {
		`{"source_dtd":"\u003c!ELEMENT a (#PCDATA)\u003e","target_dtd":"t","embedding":"e","document":"\u003ca/\u003e"}`,
		`{"document":"d","invert":true,"budget":{"timeout_ms":50,"max_input_bytes":4096,"max_nodes":16,"max_depth":8,"max_types":-3}}`,
		` { "document" : "x" , "invert" : false } ` + "\n",
		`{"document":"\" \\ \/ \b \f \n \r \t \u00e9 \u20AC"}`,
		`{"document":"\ud83d\ude00 pair"}`,
		`{"document":"\ud83d lone high"}`,
		`{"document":"\ude00 lone low"}`,
		`{"document":"\ud83d\u0041 high then BMP"}`,
		`{"document":"\ud83d\ud83d\ude00 high then pair"}`,
		`{"document":"é € 😀 raw"}`,
		`{"document":"a","document":"b"}`,
		`{"budget":{"max_nodes":1},"budget":{"max_depth":2}}`,
	},
}

// declineSeeds are bodies the fast path must leave to encoding/json:
// invalid UTF-8 (raw, and an encoded surrogate), a raw control byte,
// case-variant and unknown keys, null, numbers that are not plain
// integers or do not fit, bad escapes and malformed or trailing syntax.
var declineSeeds = []string{
	"{\"document\":\"\xff\xfe\"}",
	"{\"document\":\"\xed\xa0\x80\"}",
	"{\"document\":\"a\tb\"}",
	`{"Document":"x"}`,
	`{"DOCUMENT":"x","Invert":true}`,
	"{\"\u017fource_dtd\":\"x\"}",
	`{"docu\u006dent":"x"}`,
	`{"document":null}`,
	`null`,
	`{"budget":null}`,
	`{"seed":1.0}`,
	`{"seed":1e3}`,
	`{"seed":01}`,
	`{"seed":9223372036854775808}`,
	`{"restarts":99999999999999999999}`,
	`{"threshold":0.5}`,
	`{"unknown":1}`,
	`{"document":"\u12"}`,
	`{"document":"\x"}`,
	`{"document":"x",}`,
	`{"document":"x"} trailing`,
	`{"document":"x"}{}`,
	`{"invert":truex}`,
	`{"invert":tru}`,
	`{`,
	``,
	`[]`,
}

// FuzzDecodeRequest is the differential check of the fast path: on any
// bytes and each request type, whatever the fast path accepts
// encoding/json (unknown fields and trailing data rejected) must accept
// too with an equal struct, and decodeJSON as a whole (fast path or
// fallback) must give the reference decoder's status, message and
// request.
func FuzzDecodeRequest(f *testing.F) {
	for _, seeds := range acceptSeeds {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	for _, s := range declineSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastPath[EmbedRequest](t, data)
		checkFastPath[TranslateRequest](t, data)
		checkFastPath[MigrateRequest](t, data)
		checkDecodeParity[EmbedRequest](t, string(data), 0)
		checkDecodeParity[TranslateRequest](t, string(data), 0)
		checkDecodeParity[MigrateRequest](t, string(data), 0)
	})
}

// TestDecodeFastAccepts: the fast path, not the fallback, decodes the
// ordinary requests, escapes and surrogates included; a differential
// check alone would pass a decoder that declines everything.
func TestDecodeFastAccepts(t *testing.T) {
	accepts := map[string]func([]byte) bool{
		"embed":     func(b []byte) bool { return checkFastPath[EmbedRequest](t, b) },
		"translate": func(b []byte) bool { return checkFastPath[TranslateRequest](t, b) },
		"migrate":   func(b []byte) bool { return checkFastPath[MigrateRequest](t, b) },
	}
	for typ, seeds := range acceptSeeds {
		if typ == "migrate" {
			seeds = append(seeds, string(migrateBody(t)))
		}
		for _, s := range seeds {
			if !accepts[typ]([]byte(s)) {
				t.Errorf("%s: fast path declines %.80q", typ, s)
			}
		}
	}
}

// TestDecodeFastDeclines: what encoding/json would decode differently
// (or reject) is left to it, and decodeJSON as a whole still renders
// it as encoding/json does.
func TestDecodeFastDeclines(t *testing.T) {
	for _, s := range declineSeeds {
		if decodeFast([]byte(s), new(EmbedRequest)) || decodeFast([]byte(s), new(TranslateRequest)) ||
			decodeFast([]byte(s), new(MigrateRequest)) {
			t.Errorf("fast path accepts %q", s)
		}
		checkDecodeParity[EmbedRequest](t, s, 0)
		checkDecodeParity[TranslateRequest](t, s, 0)
		checkDecodeParity[MigrateRequest](t, s, 0)
	}
}

// TestDecodeBodyCapParity: the body cap gives the statuses and messages
// it gave when encoding/json read the body as it arrived.
func TestDecodeBodyCapParity(t *testing.T) {
	const limit = 1024
	cases := []struct {
		name, body, want string
	}{
		{"over the cap mid-object", `{"document":"` + strings.Repeat("x", 2*limit) + `"}`,
			"Request Entity Too Large limit: request body exceeds 1024 bytes"},
		{"trailing space across the cap", `{"document":"x"}` + strings.Repeat(" ", 2*limit),
			"Bad Request invalid: trailing data after JSON request object"},
		{"trailing bytes across the cap", `{"document":"x"}` + strings.Repeat("y", 2*limit),
			"Bad Request invalid: trailing data after JSON request object"},
		{"syntax error before the cap", `{"document" "x"}` + strings.Repeat(" ", 2*limit),
			"Bad Request invalid: invalid JSON request: invalid character '\"' after object key"},
		{"at the cap", `{"document":"` + strings.Repeat("x", limit-16) + `"}`, "ok"},
		{"empty", ``, "Bad Request invalid: invalid JSON request: EOF"},
		{"truncated", `{"document":"x`, "Bad Request invalid: invalid JSON request: unexpected EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := rendering(decodeJSON(newBodyRequest(c.body, limit), new(MigrateRequest), limit)); got != c.want {
				t.Errorf("decodeJSON gives %q, want %q", got, c.want)
			}
			checkDecodeParity[MigrateRequest](t, c.body, limit)
		})
	}

	// The same through the daemon: the wrapper's MaxBytesReader and the
	// error envelope.
	s := testServer(t, Config{Limits: guard.Limits{MaxInputBytes: limit}})
	for _, c := range cases[:3] {
		resp, err := http.Post("http://"+s.Addr()+"/v1/migrate", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var env errorBody
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := http.StatusText(resp.StatusCode) + " " + env.Error.Code + ": " + env.Error.Message; got != c.want {
			t.Errorf("%s: daemon answers %q, want %q", c.name, got, c.want)
		}
	}
}

// TestDecodeUntrustedContentLength: a Content-Length far above the
// cap, or at the cap, sent with a tiny body, sizes no large buffer and
// changes no outcome.
func TestDecodeUntrustedContentLength(t *testing.T) {
	const limit = 64 << 20
	body := `{"document":"x"}`
	for _, cl := range []int64{1 << 40, limit} {
		r := newBodyRequest(body, limit)
		r.ContentLength = cl
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req MigrateRequest
		err := decodeJSON(r, &req, limit)
		runtime.ReadMemStats(&after)
		if err != nil || req.Document != "x" {
			t.Fatalf("Content-Length %d: decodeJSON = %v, %+v; want the document x", cl, err, req)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 2*maxPresize {
			t.Errorf("Content-Length %d: decodeJSON allocated %d bytes for a %d-byte body", cl, n, len(body))
		}
	}
}

// TestDecodeAllocs: the fast path allocates per request (the body
// buffer, its position, the request), not per key or value: a body of
// eight keys with one-byte strings, which the runtime does not
// allocate, costs what a body of one key costs.
func TestDecodeAllocs(t *testing.T) {
	allocs := func(body string) float64 {
		data := []byte(body)
		rd := bytes.NewReader(data)
		r := &http.Request{ContentLength: int64(len(data)), Body: io.NopCloser(rd)}
		return testing.AllocsPerRun(100, func() {
			rd.Reset(data)
			var req MigrateRequest
			if err := decodeJSON(r, &req, 1<<20); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(`{"document":"d"}`)
	eight := allocs(`{"source_dtd":"s","target_dtd":"t","source_root":"r","target_root":"u","embedding":"e","document":"d","invert":true,"budget":{"max_nodes":9,"timeout_ms":5}}`)
	if eight != one || one > 3 {
		t.Errorf("decodeJSON makes %.0f allocations for one key, %.0f for eight; want at most 3 for either", one, eight)
	}
}

// migrateBody is a /v1/migrate request as perfbench's serve workload
// sends one: a ~1,500-node document of a corpus source schema and its
// embedding into a noisy copy of the schema, marshaled by encoding/json, so
// every < and > of the document and schemas arrives as \u003c or
// \u003e.
var migrateBody = func() func(testing.TB) []byte {
	once := sync.OnceValues(func() ([]byte, error) {
		// The target is a noisy copy of the source, as the serve
		// workload draws its pairs.
		p := corpus.MustPairs()[0]
		opts := workload.NoiseLevel(1)
		opts.RenameFrac = 0
		tgt := workload.Noise(p.Source, opts, rand.New(rand.NewSource(1))).DTD
		res, err := search.Find(p.Source, tgt, match.Lexical(p.Source, tgt, 0.5),
			search.Options{Heuristic: search.QualityOrdered, Seed: 1, MaxRestarts: 40})
		if err != nil {
			return nil, err
		}
		if res.Embedding == nil {
			return nil, errors.New("no embedding of " + p.Name)
		}
		var doc string
		for seed := int64(1); ; seed++ {
			d, err := corpus.GenerateSized(p.Source, seed, 1500)
			if err == nil && d.Size() >= 1470 && d.Size() <= 1530 {
				doc = d.String()
				break
			}
		}
		return json.Marshal(map[string]any{
			"source_dtd": p.SourceText, "target_dtd": tgt.String(),
			"embedding": res.Embedding.Marshal(), "document": doc,
		})
	})
	return func(tb testing.TB) []byte {
		tb.Helper()
		body, err := once()
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
}()

// BenchmarkDecodeRequest decodes one perfbench-sized /v1/migrate body
// per iteration, reading it through decodeJSON as the handler does.
func BenchmarkDecodeRequest(b *testing.B) {
	body := migrateBody(b)
	rd := bytes.NewReader(body)
	r := &http.Request{ContentLength: int64(len(body)), Body: io.NopCloser(rd)}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		var req MigrateRequest
		if err := decodeJSON(r, &req, 64<<20); err != nil {
			b.Fatal(err)
		}
	}
}
