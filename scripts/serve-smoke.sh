#!/usr/bin/env sh
# End-to-end smoke for the xse-serve daemon: boot it on a free port,
# drive the three API endpoints with the golden xse-map fixtures (JSON,
# and /v1/migrate's multipart form in both directions), and check the
# robustness surfaces a deploy relies on — artifact-cache
# reuse (via xse_server_cache_hits_total), request correlation (the
# X-Request-Id we send round-trips into the response header, the
# stderr wide-event log and /debug/events), admission shedding (429 +
# Retry-After under a full slot pool), and SIGTERM drain (in-flight
# request completes, process exits 0). Used by CI's bench-smoke job and
# `make serve-smoke`.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=""
pid2=""
trap 'kill "$pid" "$pid2" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/xse-serve" ./cmd/xse-serve

# Request bodies from the golden fixtures.
python3 - "$tmp" <<'PY'
import json, sys
tmp = sys.argv[1]
pair = {
    "source_dtd": open("testdata/xsemap/class.dtd").read(),
    "target_dtd": open("testdata/xsemap/school.dtd").read(),
}
emb = open("testdata/xsemap/map.xse").read()
doc = open("testdata/xsemap/doc.xml").read()
json.dump({**pair, "embedding": emb, "document": doc},
          open(f"{tmp}/migrate.json", "w"))
json.dump({**pair, "embedding": emb, "query": "class/cno/text()"},
          open(f"{tmp}/translate.json", "w"))
json.dump({**pair, "embedding": emb, "document": doc,
           "budget": {"timeout_ms": 60000}},
          open(f"{tmp}/slow.json", "w"))
PY

# wait_addr logfile: polls for the daemon's listen announcement.
wait_addr() {
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's#.*listening on http://\([^ ]*\) .*#\1#p' "$1" | head -n1)"
    [ -n "$addr" ] && return 0
    sleep 0.1
  done
  echo "serve-smoke: no listen announcement; stderr:" >&2
  cat "$1" >&2
  return 1
}

# post body path -> writes response body to $tmp/resp.json, prints status.
post() {
  curl -sS --max-time 30 -o "$tmp/resp.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' --data-binary "@$1" "$2"
}

fail=0

# --- Functional pass: endpoints, error mapping, artifact cache ---

"$tmp/xse-serve" -addr 127.0.0.1:0 -log-format json 2> "$tmp/s1.log" &
pid=$!
wait_addr "$tmp/s1.log"
base="http://$addr"

for probe in healthz readyz; do
  code="$(curl -sS --max-time 10 -o /dev/null -w '%{http_code}' "$base/$probe")"
  if [ "$code" != 200 ]; then
    echo "serve-smoke: /$probe = $code, want 200" >&2; fail=1
  fi
done

code="$(post "$tmp/migrate.json" "$base/v1/migrate")"
if [ "$code" != 200 ] || ! grep -q '"document"' "$tmp/resp.json"; then
  echo "serve-smoke: /v1/migrate = $code:" >&2; cat "$tmp/resp.json" >&2; fail=1
fi

code="$(post "$tmp/translate.json" "$base/v1/translate")"
if [ "$code" != 200 ] || ! grep -q '"automaton_size"' "$tmp/resp.json"; then
  echo "serve-smoke: /v1/translate = $code:" >&2; cat "$tmp/resp.json" >&2; fail=1
fi

# Second identical migrate reuses the resident schema-pair artifacts.
code="$(post "$tmp/migrate.json" "$base/v1/migrate")"
if [ "$code" != 200 ] || ! grep -q '"cached":true' "$tmp/resp.json"; then
  echo "serve-smoke: repeat /v1/migrate = $code (want 200 cached):" >&2
  cat "$tmp/resp.json" >&2; fail=1
fi

# Request correlation: our X-Request-Id comes back on the response,
# retrieves the request's wide event from /debug/events, and shows up
# in the stderr JSON log.
rid="smoke-rid-$$"
hdr_rid="$(curl -sS --max-time 10 -D - -o /dev/null \
  -X POST -H 'Content-Type: application/json' -H "X-Request-Id: $rid" \
  --data-binary "@$tmp/translate.json" "$base/v1/translate" \
  | tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: *//p' | head -n1)"
if [ "$hdr_rid" != "$rid" ]; then
  echo "serve-smoke: X-Request-Id echoed as '$hdr_rid', want '$rid'" >&2; fail=1
fi
curl -sS --max-time 10 "$base/debug/events?event=request&request_id=$rid" > "$tmp/events.json"
if ! grep -q "\"request_id\": *\"$rid\"" "$tmp/events.json"; then
  echo "serve-smoke: /debug/events has no wide event for $rid:" >&2
  cat "$tmp/events.json" >&2; fail=1
fi
if ! grep -q "\"request_id\":\"$rid\"" "$tmp/s1.log"; then
  echo "serve-smoke: stderr log has no wide-event line for $rid" >&2; fail=1
fi
# An error response echoes the correlation ID in its body.
erid="smoke-err-$$"
curl -sS --max-time 10 -o "$tmp/err.json" \
  -X POST -H "X-Request-Id: $erid" --data-binary '{nope' "$base/v1/translate"
if ! grep -q "\"request_id\":\"$erid\"" "$tmp/err.json"; then
  echo "serve-smoke: error body has no request_id:" >&2
  cat "$tmp/err.json" >&2; fail=1
fi

# Error mapping: malformed JSON is 400, wrong method 405.
code="$(curl -sS --max-time 10 -o /dev/null -w '%{http_code}' \
  -X POST --data-binary '{nope' "$base/v1/translate")"
[ "$code" = 400 ] || { echo "serve-smoke: bad JSON = $code, want 400" >&2; fail=1; }
code="$(curl -sS --max-time 10 -o /dev/null -w '%{http_code}' "$base/v1/embed")"
[ "$code" = 405 ] || { echo "serve-smoke: GET /v1/embed = $code, want 405" >&2; fail=1; }

# The metrics surface rides the same listener and carries the server
# families.
curl -sS --max-time 10 "$base/metrics" > "$tmp/metrics.txt"
for want in \
  '# TYPE xse_server_requests_total counter' \
  '# TYPE xse_server_request_seconds histogram' \
  'xse_server_requests_total{endpoint="migrate"} 2' \
  'xse_server_responses_total{status="200"}' \
  'xse_server_responses_total{status="400"}' \
  '^xse_server_cache_hits_total [1-9]'; do
  if ! grep -q "$want" "$tmp/metrics.txt"; then
    echo "serve-smoke: /metrics missing: $want" >&2
    fail=1
  fi
done

# --- Multipart form: σd and σd⁻¹ streamed off the wire ---
# Each field is sent from its file, the document part last; the raw XML
# answers must equal the JSON form's documents byte for byte.
post "$tmp/migrate.json" "$base/v1/migrate" > /dev/null
python3 - "$tmp" <<'PY'
import json, sys
tmp = sys.argv[1]
fwd = json.load(open(f"{tmp}/resp.json"))["document"]
open(f"{tmp}/json-fwd.xml", "wb").write(fwd.encode())
req = json.load(open(f"{tmp}/migrate.json"))
json.dump({**req, "document": fwd, "invert": True}, open(f"{tmp}/invert.json", "w"))
PY
post "$tmp/invert.json" "$base/v1/migrate" > /dev/null
python3 - "$tmp" <<'PY'
import json, sys
tmp = sys.argv[1]
inv = json.load(open(f"{tmp}/resp.json"))["document"]
open(f"{tmp}/json-inv.xml", "wb").write(inv.encode())
PY

# mpost curl-args...: posts the fixture pair and embedding as a
# multipart /v1/migrate with the extra parts appended; writes the
# response body to $tmp/mp.xml, prints the status.
mpost() {
  curl -sS --max-time 30 -o "$tmp/mp.xml" -w '%{http_code}' \
    -F 'source_dtd=<testdata/xsemap/class.dtd' \
    -F 'target_dtd=<testdata/xsemap/school.dtd' \
    -F 'embedding=<testdata/xsemap/map.xse' \
    "$@" "$base/v1/migrate"
}
code="$(mpost -F 'document=@testdata/xsemap/doc.xml')"
if [ "$code" != 200 ] || ! cmp -s "$tmp/mp.xml" "$tmp/json-fwd.xml"; then
  echo "serve-smoke: multipart /v1/migrate = $code, want 200 and the JSON form's document:" >&2
  cat "$tmp/mp.xml" >&2; fail=1
fi
mv "$tmp/mp.xml" "$tmp/mp-fwd.xml"
code="$(mpost -F invert=true -F "document=@$tmp/mp-fwd.xml")"
if [ "$code" != 200 ] || ! cmp -s "$tmp/mp.xml" "$tmp/json-inv.xml"; then
  echo "serve-smoke: multipart inverse /v1/migrate = $code, want 200 and the JSON inverse:" >&2
  cat "$tmp/mp.xml" >&2; fail=1
fi

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""

# --- Robustness pass: shedding and graceful drain ---
# One execution slot, no queue, and every migrate stage slowed by an
# injected 2s latency: a concurrent request must be shed, and SIGTERM
# must let the in-flight one finish.

"$tmp/xse-serve" -addr 127.0.0.1:0 -max-inflight 1 -max-queue -1 \
  -drain-timeout 30s -fault latency:server.migrate:2s 2> "$tmp/s2.log" &
pid2=$!
wait_addr "$tmp/s2.log"
base="http://$addr"

post "$tmp/slow.json" "$base/v1/migrate" > "$tmp/slow.code" &
slowpid=$!
sleep 0.5

# Slot occupied, queue disabled: shed with 429 + Retry-After.
code="$(curl -sS --max-time 10 -D "$tmp/shed.hdr" -o "$tmp/shed.json" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' --data-binary "@$tmp/migrate.json" "$base/v1/migrate")"
if [ "$code" != 429 ]; then
  echo "serve-smoke: overload = $code, want 429:" >&2; cat "$tmp/shed.json" >&2; fail=1
fi
if ! grep -qi '^retry-after:' "$tmp/shed.hdr"; then
  echo "serve-smoke: 429 without Retry-After header" >&2; fail=1
fi

# Drain: the in-flight request must complete with 200 and the daemon
# must exit 0 reporting a clean drain.
kill -TERM "$pid2"
drain_rc=0
wait "$pid2" || drain_rc=$?
pid2=""
wait "$slowpid" || true
if [ "$(cat "$tmp/slow.code")" != 200 ]; then
  echo "serve-smoke: in-flight request lost during drain (status $(cat "$tmp/slow.code"))" >&2
  fail=1
fi
if [ "$drain_rc" != 0 ] || ! grep -q 'drained cleanly' "$tmp/s2.log"; then
  echo "serve-smoke: drain exit=$drain_rc; stderr:" >&2
  cat "$tmp/s2.log" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "serve-smoke: FAILED" >&2
  exit 1
fi
echo "serve-smoke: endpoints, multipart migrate, cache reuse, shedding and SIGTERM drain OK"
