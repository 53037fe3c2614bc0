package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/xpath"
)

// Budget is the per-request resource envelope. Every field is
// optional; a request can only tighten the server's own caps, never
// widen them.
type Budget struct {
	// TimeoutMS is the wall-clock budget in milliseconds (default the
	// server's -default-timeout, capped at -max-timeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxInputBytes / MaxNodes / MaxDepth / MaxTypes tighten the
	// corresponding guard.Limits bound for this request's parses.
	MaxInputBytes int `json:"max_input_bytes,omitempty"`
	MaxNodes      int `json:"max_nodes,omitempty"`
	MaxDepth      int `json:"max_depth,omitempty"`
	MaxTypes      int `json:"max_types,omitempty"`
}

// tighten returns base with every positive request field lowered to
// the request's value (never raised: min of the two where base is
// bounded, the request value where base is unlimited).
func (b Budget) tighten(base guard.Limits) guard.Limits {
	clamp := func(req, base int) int {
		if req <= 0 {
			return base
		}
		if base > 0 && base < req {
			return base
		}
		return req
	}
	base.MaxInputBytes = clamp(b.MaxInputBytes, base.MaxInputBytes)
	base.MaxNodes = clamp(b.MaxNodes, base.MaxNodes)
	base.MaxDepth = clamp(b.MaxDepth, base.MaxDepth)
	base.MaxTypes = clamp(b.MaxTypes, base.MaxTypes)
	return base
}

// budgetCtx derives the request's execution context and limits: the
// wall-clock deadline (request value capped by MaxTimeout, default
// DefaultTimeout) and the tightened guard.Limits.
func (s *Server) budgetCtx(ctx context.Context, b Budget) (context.Context, context.CancelFunc, guard.Limits) {
	d := s.cfg.DefaultTimeout
	if b.TimeoutMS > 0 {
		d = time.Duration(b.TimeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	obs.EventFrom(ctx).Dur("timeout_ms", d)
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, b.tighten(s.cfg.Limits)
}

// decodeJSON decodes the request body strictly: unknown fields and
// trailing data are invalid input, and a body that trips the
// MaxBytesReader surfaces as a limit error.
func decodeJSON(r *http.Request, into any) error {
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

// schemaPair parses and names the source/target schemas shared by all
// three endpoints.
type schemaPair struct {
	SourceDTD  string `json:"source_dtd"`
	TargetDTD  string `json:"target_dtd"`
	SourceRoot string `json:"source_root,omitempty"`
	TargetRoot string `json:"target_root,omitempty"`
}

func (p schemaPair) parse(lim guard.Limits) (src, tgt *dtd.DTD, err error) {
	if p.SourceDTD == "" || p.TargetDTD == "" {
		return nil, nil, badRequest("source_dtd and target_dtd are required")
	}
	src, err = dtd.ParseLimits(p.SourceDTD, p.SourceRoot, lim)
	if err != nil {
		if isLimit(err) {
			return nil, nil, err
		}
		return nil, nil, badRequest("source_dtd: %v", err)
	}
	tgt, err = dtd.ParseLimits(p.TargetDTD, p.TargetRoot, lim)
	if err != nil {
		if isLimit(err) {
			return nil, nil, err
		}
		return nil, nil, badRequest("target_dtd: %v", err)
	}
	return src, tgt, nil
}

// isLimit keeps guard.LimitError its own class (413) when wrapping
// parse failures as 400s.
func isLimit(err error) bool {
	var le *guard.LimitError
	return errors.As(err, &le)
}

// --- /v1/embed ---

// EmbedRequest asks for an embedding of source into target.
type EmbedRequest struct {
	schemaPair
	// Att selects the similarity matrix: "lexical" (default) or
	// "uniform".
	Att string `json:"att,omitempty"`
	// Threshold is the lexical similarity cutoff (default 0.5).
	Threshold *float64 `json:"threshold,omitempty"`
	// Heuristic is "random" (default), "quality", "indepset" or
	// "exact".
	Heuristic string `json:"heuristic,omitempty"`
	// Seed drives the search's pseudo-random choices (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Restarts bounds random restarts (default 40, as xse-embed).
	Restarts int `json:"restarts,omitempty"`
	// Explain records the per-restart explainability ledger (heuristic,
	// seed, rejection counts by constraint class, abort reason) and
	// returns it in the response. Explained and unexplained runs are
	// cached as distinct artifacts.
	Explain bool   `json:"explain,omitempty"`
	Budget  Budget `json:"budget,omitempty"`
}

// EmbedResponse returns the embedding in the textual mapping format
// (feed it back to /v1/translate and /v1/migrate verbatim).
type EmbedResponse struct {
	Embedding string  `json:"embedding"`
	Quality   float64 `json:"quality"`
	Restarts  int     `json:"restarts"`
	Steps     int     `json:"steps"`
	// ElapsedMS is the search's own wall-clock cost — 0 when the
	// response came from the artifact cache.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Cached reports an artifact-cache hit: the search did not run.
	Cached bool `json:"cached"`
	// Ledger and Rejections are present only when the request set
	// explain: per-restart records and the aggregate rejection counts
	// by constraint class.
	Ledger     []search.RestartRecord `json:"ledger,omitempty"`
	Rejections *search.Rejections     `json:"rejections,omitempty"`
}

// embedArtifact is the cached outcome of one embed search.
type embedArtifact struct {
	text       string
	quality    float64
	restarts   int
	steps      int
	ledger     []search.RestartRecord
	rejections search.Rejections
}

// parseHeuristic maps a request's heuristic name; an absent one
// selects Random.
func parseHeuristic(s string) (search.Heuristic, error) {
	if s == "" {
		return search.Random, nil
	}
	h, err := search.ParseHeuristic(s)
	if err != nil {
		return 0, badRequest("unknown heuristic %q (want random, quality, indepset or exact)", s)
	}
	return h, nil
}

// artifactKey hashes length-framed parts into a content key, so two
// requests naming the same schemas, embedding and options share one
// artifact entry regardless of which connection they arrived on.
func artifactKey(parts ...string) string {
	h := sha256.New()
	for _, part := range parts {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Server) handleEmbed(ctx context.Context, r *http.Request) (any, error) {
	var req EmbedRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	h, err := parseHeuristic(req.Heuristic)
	if err != nil {
		return nil, err
	}
	threshold := 0.5
	if req.Threshold != nil {
		threshold = *req.Threshold
	}
	switch req.Att {
	case "", "lexical", "uniform":
	default:
		return nil, badRequest("unknown att %q (want lexical or uniform)", req.Att)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	restarts := req.Restarts
	if restarts <= 0 {
		restarts = 40
	}

	bctx, cancel, lim := s.budgetCtx(ctx, req.Budget)
	defer cancel()

	key := artifactKey("embed", req.SourceDTD, req.TargetDTD, req.SourceRoot, req.TargetRoot,
		req.Att, fmt.Sprint(threshold), strings.ToLower(req.Heuristic), fmt.Sprint(seed), fmt.Sprint(restarts),
		fmt.Sprint(req.Explain))
	start := time.Now()
	val, hit, err := s.artifacts.Get(bctx, key, func() (any, error) {
		src, tgt, err := req.schemaPair.parse(lim)
		if err != nil {
			return nil, err
		}
		var att *embedding.SimMatrix
		if req.Att == "uniform" {
			att = embedding.UniformSim(src, tgt)
		} else {
			att = match.Lexical(src, tgt, threshold)
		}
		// Chaos injection point: latency here makes the cold/warm
		// latency contrast deterministic in tests.
		if err := guard.Fault(bctx, "server.embed.search"); err != nil {
			return nil, err
		}
		res, err := search.FindCtx(bctx, src, tgt, att, search.Options{
			Heuristic:   h,
			Seed:        seed,
			MaxRestarts: restarts,
			Explain:     req.Explain,
		})
		if err != nil {
			return nil, err
		}
		if res.Embedding == nil {
			if res.Exhausted {
				return nil, notFound("no embedding exists within the search bounds")
			}
			return nil, notFound("no embedding found (budget exhausted; raise restarts or use att=uniform)")
		}
		return &embedArtifact{
			text:       res.Embedding.Marshal(),
			quality:    res.Quality,
			restarts:   res.Restarts,
			steps:      res.Steps,
			ledger:     res.Ledger,
			rejections: res.Rejections,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	art := val.(*embedArtifact)
	obs.EventFrom(ctx).
		Bool("cache_hit", hit).
		Str("heuristic", strings.ToLower(req.Heuristic)).
		Int("search_restarts", int64(art.restarts)).
		Int("search_steps", int64(art.steps))
	resp := &EmbedResponse{
		Embedding: art.text,
		Quality:   art.quality,
		Restarts:  art.restarts,
		Steps:     art.steps,
		Cached:    hit,
	}
	if req.Explain {
		resp.Ledger = art.ledger
		rej := art.rejections
		resp.Rejections = &rej
		obs.EventFrom(ctx).Int("rejections_total", int64(rej.Total()))
	}
	if !hit {
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return resp, nil
}

// --- shared pair artifacts for /v1/translate and /v1/migrate ---

// pairArtifacts is the compiled, shareable state of one
// (source DTD, target DTD, σ) triple: the validated embedding, its
// translation cache and its stream programs. It is built once per
// content hash and shared by every request that names the same triple.
type pairArtifacts struct {
	sigma *embedding.Embedding
	trans *translate.Cache
	// prog and inv are σd and σd⁻¹ compiled for streaming: migrations
	// run documents through them token-by-token instead of building
	// trees.
	prog, inv *embedding.StreamProgram
}

func (s *Server) pairFor(ctx context.Context, p schemaPair, embText string, lim guard.Limits) (*pairArtifacts, bool, error) {
	if embText == "" {
		return nil, false, badRequest("embedding is required (obtain one from /v1/embed)")
	}
	key := artifactKey("pair", p.SourceDTD, p.TargetDTD, p.SourceRoot, p.TargetRoot, embText)
	val, hit, err := s.artifacts.Get(ctx, key, func() (any, error) {
		src, tgt, err := p.parse(lim)
		if err != nil {
			return nil, err
		}
		sigma, err := embedding.Unmarshal(embText, src, tgt)
		if err != nil {
			return nil, badRequest("embedding: %v", err)
		}
		if err := sigma.Validate(nil); err != nil {
			return nil, badRequest("invalid embedding: %v", err)
		}
		prog, err := sigma.CompileStream()
		if err != nil {
			return nil, fmt.Errorf("internal error: compile streaming program: %w", err)
		}
		inv, err := sigma.CompileStreamInverse()
		if err != nil {
			return nil, fmt.Errorf("internal error: compile streaming inverse: %w", err)
		}
		return &pairArtifacts{
			sigma: sigma,
			trans: translate.NewCache(),
			prog:  prog,
			inv:   inv,
		}, nil
	})
	if err != nil {
		return nil, false, err
	}
	return val.(*pairArtifacts), hit, nil
}

// --- /v1/translate ---

// TranslateRequest translates one X_R query across an embedding.
type TranslateRequest struct {
	schemaPair
	// Embedding is the mapping text from /v1/embed (or xse-embed).
	Embedding string `json:"embedding"`
	// Query is the regular XPath query over the source schema.
	Query string `json:"query"`
	// ShowRegex also expands the automaton back to regular XPath
	// (small automata only).
	ShowRegex bool `json:"show_regex,omitempty"`
	// NoOptimize keeps the raw translation, skipping the default-on
	// schema-aware ANFA optimizer (the differential baseline). The
	// two variants are cached as distinct artifacts.
	NoOptimize bool   `json:"no_optimize,omitempty"`
	Budget     Budget `json:"budget,omitempty"`
}

// TranslateResponse reports the translated automaton.
type TranslateResponse struct {
	Query         string `json:"query"`
	AutomatonSize int    `json:"automaton_size"`
	Regex         string `json:"regex,omitempty"`
	// Cached reports whether the schema-pair artifacts were already
	// resident (the translation itself may additionally hit the
	// per-pair translation cache — see xse_translate_cache_*).
	Cached bool `json:"cached"`
}

func (s *Server) handleTranslate(ctx context.Context, r *http.Request) (any, error) {
	var req TranslateRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Query == "" {
		return nil, badRequest("query is required")
	}
	bctx, cancel, lim := s.budgetCtx(ctx, req.Budget)
	defer cancel()

	pair, hit, err := s.pairFor(bctx, req.schemaPair, req.Embedding, lim)
	if err != nil {
		return nil, err
	}
	q, err := xpath.ParseLimits(req.Query, lim)
	if err != nil {
		if isLimit(err) {
			return nil, err
		}
		return nil, badRequest("query: %v", err)
	}
	if err := guard.Fault(bctx, "server.translate"); err != nil {
		return nil, err
	}
	auto, err := pair.trans.GetOpt(bctx, pair.sigma, q, translate.Options{NoOptimize: req.NoOptimize})
	if err != nil {
		return nil, err
	}
	obs.EventFrom(ctx).Bool("cache_hit", hit).Int("automaton_size", int64(auto.Size()))
	resp := &TranslateResponse{
		Query:         xpath.String(q),
		AutomatonSize: auto.Size(),
		Cached:        hit,
	}
	if req.ShowRegex {
		back, err := auto.ToRegex()
		if err == nil {
			resp.Regex = xpath.String(back)
		}
	}
	return resp, nil
}

// --- /v1/migrate ---

// MigrateRequest migrates one document through σd (or σd⁻¹ with
// Invert).
type MigrateRequest struct {
	schemaPair
	Embedding string `json:"embedding"`
	// Document is the XML instance to migrate.
	Document string `json:"document"`
	// Invert applies the inverse mapping σd⁻¹.
	Invert bool   `json:"invert,omitempty"`
	Budget Budget `json:"budget,omitempty"`
}

// MigrateResponse carries the migrated document.
type MigrateResponse struct {
	Document string `json:"document"`
	// Attempts is how many times the migrate stage ran (1 + retries
	// consumed on transient failures).
	Attempts int  `json:"attempts"`
	Cached   bool `json:"cached"`
}

func (s *Server) handleMigrate(ctx context.Context, r *http.Request) (any, error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "multipart/form-data") {
		return s.handleMigrateMultipart(ctx, r)
	}
	var req MigrateRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Document == "" {
		return nil, badRequest("document is required")
	}
	bctx, cancel, lim := s.budgetCtx(ctx, req.Budget)
	defer cancel()

	pair, hit, err := s.pairFor(bctx, req.schemaPair, req.Embedding, lim)
	if err != nil {
		return nil, err
	}

	// Stream the document through the compiled σd or σd⁻¹: no input or
	// output tree. The response buffer keeps the error contract (a
	// mid-stream fault still renders its proper status).
	prog, stage := pair.prog, "instance mapping"
	if req.Invert {
		prog, stage = pair.inv, "inverse mapping"
	}
	var buf strings.Builder
	attempts, err := s.withRetry(bctx, func(ctx context.Context) error {
		// Chaos injection point: the retry loop exists for transient
		// mid-migration failures, which fault plans simulate here.
		if err := guard.Fault(ctx, "server.migrate"); err != nil {
			return err
		}
		buf.Reset()
		_, serr := prog.Run(ctx, strings.NewReader(req.Document), &buf,
			embedding.StreamOptions{Limits: lim})
		return classifyStream(serr, stage)
	})
	if err != nil {
		return nil, err
	}
	obs.EventFrom(ctx).Bool("cache_hit", hit).Int("attempts", int64(attempts))
	return &MigrateResponse{Document: buf.String(), Attempts: attempts, Cached: hit}, nil
}

// classifyStream maps a streaming failure onto the endpoint's error
// classes: decoder faults are the "document:" 400, mapping faults the
// 400 named by stage ("instance mapping" or "inverse mapping"), and
// cancellation/limit errors keep their own classes (504/413).
func classifyStream(serr error, stage string) error {
	if serr == nil {
		return nil
	}
	var se *embedding.StreamError
	if !errors.As(serr, &se) {
		return serr
	}
	switch se.Stage {
	case "parse":
		return badRequest("document: %v", se.Err).orWorse(se.Err)
	case "write":
		return fmt.Errorf("internal error: write output: %w", se.Err)
	}
	return badRequest("%s: %v", stage, se.Err).orWorse(se.Err)
}

// rawXML is a non-JSON endpoint result: the api wrapper writes it
// verbatim with the XML content type (used by multipart /v1/migrate).
type rawXML struct {
	body []byte
}

// handleMigrateMultipart is the streaming request form of /v1/migrate:
// a multipart/form-data body whose fields mirror the JSON request
// (source_dtd, target_dtd, source_root, target_root, embedding, and an
// optional budget part holding the JSON budget object), followed by a
// final "document" part. The document part is fed to the compiled σd
// directly off the wire — the request body is never buffered — and the
// migrated XML comes back raw (application/xml). Only forward
// migration streams; use the JSON form for σd⁻¹.
func (s *Server) handleMigrateMultipart(ctx context.Context, r *http.Request) (any, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, badRequest("invalid multipart request: %v", err)
	}
	fields := map[string]string{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return nil, badRequest("multipart request has no document part")
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, mbe
			}
			return nil, badRequest("invalid multipart request: %v", err)
		}
		name := part.FormName()
		if name != "document" {
			// Config fields are small; the body cap still bounds them.
			data, err := io.ReadAll(part)
			part.Close()
			if err != nil {
				var mbe *http.MaxBytesError
				if errors.As(err, &mbe) {
					return nil, mbe
				}
				return nil, badRequest("multipart field %q: %v", name, err)
			}
			fields[name] = string(data)
			continue
		}

		// All configuration must precede the document: from here on the
		// part reader streams straight into the engine.
		var budget Budget
		if b := fields["budget"]; b != "" {
			if err := json.Unmarshal([]byte(b), &budget); err != nil {
				part.Close()
				return nil, badRequest("budget: %v", err)
			}
		}
		bctx, cancel, lim := s.budgetCtx(ctx, budget)
		defer cancel()
		pair, _, err := s.pairFor(bctx, schemaPair{
			SourceDTD:  fields["source_dtd"],
			TargetDTD:  fields["target_dtd"],
			SourceRoot: fields["source_root"],
			TargetRoot: fields["target_root"],
		}, fields["embedding"], lim)
		if err != nil {
			part.Close()
			return nil, err
		}
		if err := guard.Fault(bctx, "server.migrate"); err != nil {
			part.Close()
			return nil, err
		}
		// The response is buffered (not the request): a conformance or
		// limit fault discovered mid-document must still produce its
		// proper status code, which is impossible once raw XML bytes
		// have been sent.
		var buf bytes.Buffer
		_, serr := pair.prog.Run(bctx, part, &buf, embedding.StreamOptions{Limits: lim})
		part.Close()
		if serr != nil {
			return nil, classifyStream(serr, "instance mapping")
		}
		return &rawXML{body: buf.Bytes()}, nil
	}
}

// orWorse keeps cancellation, limit and injected-fault errors in their
// own classes when a mapping stage fails: only genuine input faults
// collapse to 400.
func (ae *apiError) orWorse(err error) error {
	var ce *guard.CancelError
	var le *guard.LimitError
	var fe *guard.FaultError
	if errors.As(err, &ce) || errors.As(err, &le) || errors.As(err, &fe) {
		return err
	}
	return ae
}
