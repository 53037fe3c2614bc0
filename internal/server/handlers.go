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
	"mime"
	"mime/multipart"
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
	_, dt := stDecode.Begin(ctx)
	defer dt.End()
	if err := decodeJSON(r, &req, s.cfg.Limits.MaxInputBytes); err != nil {
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
	attKind := req.Att
	switch attKind {
	case "":
		attKind = "lexical"
	case "lexical", "uniform":
	default:
		return nil, badRequest("unknown att %q (want lexical or uniform)", req.Att)
	}
	// The key holds the parsed options, so spellings of one search share
	// an artifact; uniform ignores the threshold, so it is left out.
	thresholdKey := ""
	if attKind == "lexical" {
		thresholdKey = fmt.Sprint(threshold)
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
	dt.End()

	lctx, tm := stLookup.Begin(bctx)
	key := artifactKey("embed", req.SourceDTD, req.TargetDTD, req.SourceRoot, req.TargetRoot,
		attKind, thresholdKey, h.String(), fmt.Sprint(seed), fmt.Sprint(restarts),
		fmt.Sprint(req.Explain))
	val, hit, err := s.artifacts.Get(lctx, key, func() (any, error) {
		src, tgt, err := req.schemaPair.parse(lim)
		if err != nil {
			return nil, err
		}
		var att *embedding.SimMatrix
		if attKind == "uniform" {
			att = embedding.UniformSim(src, tgt)
		} else {
			att = match.Lexical(src, tgt, threshold)
		}
		// Chaos injection point: latency here makes the cold/warm
		// latency contrast deterministic in tests.
		if err := guard.Fault(lctx, "server.embed.search"); err != nil {
			return nil, err
		}
		res, err := search.FindCtx(lctx, src, tgt, att, search.Options{
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
	elapsed := tm.End()
	if err != nil {
		return nil, err
	}
	art := val.(*embedArtifact)
	obs.EventFrom(ctx).
		Bool("cache_hit", hit).
		Str("heuristic", strings.ToLower(h.String())).
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
		resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	}
	return resp, nil
}

// --- shared pair artifacts for /v1/translate and /v1/migrate ---

// pairArtifacts is the shareable state of one (source DTD, target DTD,
// σ) triple: the validated embedding, which memoizes its own σd and
// σd⁻¹ stream programs, and its translation cache. It is built once
// per content hash and shared by every request that names the same
// triple.
type pairArtifacts struct {
	sigma *embedding.Embedding
	trans *translate.Cache
}

// pairFor looks the pair's artifacts up, building them on a miss, as
// the request's server.lookup stage.
func (s *Server) pairFor(ctx context.Context, p schemaPair, embText string, lim guard.Limits) (*pairArtifacts, bool, error) {
	if embText == "" {
		return nil, false, badRequest("embedding is required (obtain one from /v1/embed)")
	}
	ctx, tm := stLookup.Begin(ctx)
	defer tm.End()
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
		trans, err := translate.NewCache(sigma)
		if err != nil {
			return nil, badRequest("invalid embedding: %v", err)
		}
		return &pairArtifacts{sigma: sigma, trans: trans}, nil
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
	_, dt := stDecode.Begin(ctx)
	defer dt.End()
	if err := decodeJSON(r, &req, s.cfg.Limits.MaxInputBytes); err != nil {
		return nil, err
	}
	if req.Query == "" {
		return nil, badRequest("query is required")
	}
	bctx, cancel, lim := s.budgetCtx(ctx, req.Budget)
	defer cancel()
	dt.End()

	pair, hit, err := s.pairFor(bctx, req.schemaPair, req.Embedding, lim)
	if err != nil {
		return nil, err
	}
	wctx, tm := stWork.Begin(bctx)
	defer tm.End()
	q, err := xpath.ParseLimits(req.Query, lim)
	if err != nil {
		if isLimit(err) {
			return nil, err
		}
		return nil, badRequest("query: %v", err)
	}
	if err := guard.Fault(wctx, "server.translate"); err != nil {
		return nil, err
	}
	auto, err := pair.trans.GetOpt(wctx, q, translate.Options{NoOptimize: req.NoOptimize})
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
	Cached   bool   `json:"cached"`
}

// handleMigrate serves both request forms of /v1/migrate through one
// streaming core. The JSON form carries a MigrateRequest and answers a
// MigrateResponse. The multipart/form-data form carries the same
// fields as parts, the document part last; that part is fed to the
// compiled program directly off the wire (the request body is never
// buffered) and the migrated XML comes back raw (application/xml).
func (s *Server) handleMigrate(ctx context.Context, r *http.Request) (any, error) {
	var req MigrateRequest
	var doc io.Reader
	var mr *multipart.Reader
	_, dt := stDecode.Begin(ctx)
	defer dt.End()
	mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mt == "multipart/form-data" {
		var part *multipart.Part
		var err error
		if mr, part, err = decodeMultipart(r, &req); err != nil {
			return nil, err
		}
		defer part.Close()
		doc = part
	} else {
		if err := decodeJSON(r, &req, s.cfg.Limits.MaxInputBytes); err != nil {
			return nil, err
		}
		if req.Document == "" {
			return nil, badRequest("document is required")
		}
		doc = strings.NewReader(req.Document)
	}
	bctx, cancel, lim := s.budgetCtx(ctx, req.Budget)
	defer cancel()
	dt.End()

	pair, hit, err := s.pairFor(bctx, req.schemaPair, req.Embedding, lim)
	if err != nil {
		return nil, err
	}
	wctx, tm := stWork.Begin(bctx)
	defer tm.End()
	// Chaos injection point: a fault here stands in for a failure
	// mid-migration.
	if err := guard.Fault(wctx, "server.migrate"); err != nil {
		return nil, err
	}

	// Stream the document through the compiled σd or σd⁻¹: no input or
	// output tree. The response is buffered (not the request): a
	// conformance or limit fault discovered mid-document must still
	// produce its proper status, which is impossible once bytes have
	// been sent.
	compile, stage := pair.sigma.CompileStream, "instance mapping"
	if req.Invert {
		compile, stage = pair.sigma.CompileStreamInverse, "inverse mapping"
	}
	prog, err := compile()
	if err != nil {
		return nil, fmt.Errorf("internal error: compile streaming %s: %w", stage, err)
	}
	var out strings.Builder
	_, serr := prog.Run(wctx, doc, &out, embedding.StreamOptions{Limits: lim})
	if err := classifyStream(serr, stage); err != nil {
		return nil, err
	}
	obs.EventFrom(ctx).Bool("cache_hit", hit)
	if mr == nil {
		return &MigrateResponse{Document: out.String(), Cached: hit}, nil
	}
	// The document part is the last: a field after it would be dropped.
	next, err := mr.NextPart()
	if err == nil {
		next.Close()
		return nil, badRequest("multipart field %q follows the document part", next.FormName())
	}
	if err != io.EOF {
		return nil, multipartError(err)
	}
	return &rawXML{body: out.String()}, nil
}

// decodeMultipart reads a multipart /v1/migrate body into req up to its
// "document" part, which it returns unread. Every earlier part is one
// MigrateRequest field named by its JSON key: string fields are taken
// verbatim, invert and budget hold JSON values ("true",
// {"timeout_ms":500}). The parts are decoded as one JSON object, as
// strictly as the JSON form: an unknown field or budget key is invalid
// input.
func decodeMultipart(r *http.Request, req *MigrateRequest) (*multipart.Reader, *multipart.Part, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, nil, badRequest("invalid multipart request: %v", err)
	}
	fields := map[string]json.RawMessage{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return nil, nil, badRequest("multipart request has no document part")
		}
		if err != nil {
			return nil, nil, multipartError(err)
		}
		name := part.FormName()
		if name == "document" {
			obj, err := json.Marshal(fields)
			if err == nil {
				dec := json.NewDecoder(bytes.NewReader(obj))
				dec.DisallowUnknownFields()
				err = dec.Decode(req)
			}
			if err != nil {
				part.Close()
				return nil, nil, badRequest("multipart request: %v", err)
			}
			return mr, part, nil
		}
		// Fields are small; the body cap still bounds them.
		data, err := io.ReadAll(part)
		part.Close()
		if err != nil {
			return nil, nil, multipartError(err)
		}
		if name == "invert" || name == "budget" {
			fields[name] = data
		} else {
			fields[name], _ = json.Marshal(string(data)) // a string always marshals
		}
	}
}

// multipartError keeps a body that trips the MaxBytesReader a limit
// error; any other read failure is a malformed request.
func multipartError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return mbe
	}
	return badRequest("invalid multipart request: %v", err)
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
// verbatim with the XML content type (multipart /v1/migrate).
type rawXML struct {
	body string
}

// orWorse keeps cancellation and limit errors in their own classes
// when a mapping stage fails: only genuine input faults collapse to
// 400. A multipart document read off the wire can trip the request
// body cap mid-stream; that stays a 413 too.
func (ae *apiError) orWorse(err error) error {
	var ce *guard.CancelError
	var le *guard.LimitError
	var mbe *http.MaxBytesError
	if errors.As(err, &ce) || errors.As(err, &le) || errors.As(err, &mbe) {
		return err
	}
	return ae
}
