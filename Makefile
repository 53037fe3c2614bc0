GO ?= go
FUZZTIME ?= 5s
ORACLE_TRIALS ?= 500
ORACLE_SEED ?= 1
CORPUS_DOCS ?= 3
CORPUS_DOC_NODES ?= 400
CORPUS_SEED ?= 1
# Coverage ratchet floor (statement %, internal/ packages only). Only
# move it UP: raise it when a PR lifts coverage.
COVER_FLOOR ?= 84.3

.PHONY: all build fmt vet test race fuzz bench bench-json check oracle metriclint debug-smoke serve-smoke stream-smoke corpus corpus-diff cover perfbench

all: build

build:
	$(GO) build ./...

# Formatting gate: every Go file must be gofmt-clean (lists offenders).
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel corpus search runs ten more times: its workers' private
# memos must never race.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run '^TestParallelCorpusRandom$$' ./internal/search

# Fuzz smoke: run each native fuzz target briefly. Lengthen with e.g.
# `make fuzz FUZZTIME=5m` for a real session. Minimization of each new
# interesting input is capped at 2s: the 60s default stalls longer
# sessions at 0 execs/s.
FUZZFLAGS = -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDTDParse $(FUZZFLAGS) ./internal/dtd
	$(GO) test -run='^$$' -fuzz=FuzzXPathParse $(FUZZFLAGS) ./internal/xpath
	$(GO) test -run='^$$' -fuzz=FuzzXMLDecode $(FUZZFLAGS) ./internal/xmltree
	$(GO) test -run='^$$' -fuzz=FuzzServeRequest $(FUZZFLAGS) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzStreamMigrate $(FUZZFLAGS) ./internal/embedding
	$(GO) test -run='^$$' -fuzz=FuzzStreamInvert $(FUZZFLAGS) ./internal/embedding
	$(GO) test -run='^$$' -fuzz=FuzzAnfaOptimize $(FUZZFLAGS) ./internal/anfa

bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh the checked-in benchmark trajectory file (BENCH_PR<n>.json);
# see DESIGN.md "Performance" and scripts/bench.sh.
bench-json:
	./scripts/bench.sh

# Property-based conformance oracle (see TESTING.md): randomized
# end-to-end verification of type safety, invertibility and query
# preservation. Deepen with `make oracle ORACLE_TRIALS=5000`.
oracle:
	$(GO) run ./cmd/xse-oracle -trials $(ORACLE_TRIALS) -seed $(ORACLE_SEED)

# Real-world corpus workload (see TESTING.md "Corpus workload"): run
# the full pipeline — search under every heuristic, migration,
# translated-query preservation — over the checked-in DTD evolution
# pairs and write the machine-readable quality report.
corpus:
	$(GO) run ./cmd/xse-corpus -docs $(CORPUS_DOCS) -doc-nodes $(CORPUS_DOC_NODES) \
		-seed $(CORPUS_SEED) -search-timeout 60s -out corpus-report.json

# External differential conformance (optional; needs xmllint from
# libxml2): cross-validate the X_R evaluator and migrated documents
# against xmllint --xpath / --dtdvalid. Build-tagged so the core tree
# stays dependency-free; the test skips politely if xmllint is absent.
corpus-diff:
	$(GO) test -tags xmllint ./internal/corpus -run Xmllint -v

# Coverage ratchet: per-package summary plus a total floor over the
# internal/ library packages (main packages are exercised by the smoke
# scripts instead). See scripts/covercheck.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) run ./scripts/covercheck -profile coverage.out \
		-exclude /cmd/,/examples/,/scripts/ -floor $(COVER_FLOOR)

# Metric-naming lint (see DESIGN.md "Observability"): registration
# sites must use xse_-prefixed lowercase names with kind-appropriate
# suffixes, and no name may be registered twice or as two kinds.
metriclint:
	$(GO) run ./scripts/metriclint

# End-to-end scrape smoke: run a batch under -debug-addr and curl
# /metrics while the server lingers (see scripts/debug-smoke.sh).
debug-smoke:
	./scripts/debug-smoke.sh

# Daemon smoke: boot xse-serve, drive the API, and exercise cache
# reuse, shedding and SIGTERM drain (see scripts/serve-smoke.sh).
serve-smoke:
	./scripts/serve-smoke.sh

# Streaming-migration smoke: byte equivalence of the streaming default
# and the generated XSLT stylesheets (-via-xslt) in both directions
# (single doc and batch, -j 1 and -j 8) plus the
# bounded-memory checks on a large document and on its σd image (see
# scripts/stream-smoke.sh).
stream-smoke:
	./scripts/stream-smoke.sh

# Benchmark module gate: perfbench is a nested module (repro/perfbench),
# so the root ./... patterns never compile it. Vet and test it here so
# an API change that breaks the benchmark fails the check.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Tier-1+ gate (see ROADMAP.md): everything a PR must keep green.
check: fmt vet metriclint build perfbench race fuzz oracle serve-smoke stream-smoke
