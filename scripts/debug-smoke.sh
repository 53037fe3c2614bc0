#!/usr/bin/env sh
# Scrape smoke for the telemetry endpoint: run xse-map -batch with
# -debug-addr, curl /metrics during the -debug-linger window, and check
# the exposition carries the pipeline counters a real Prometheus scrape
# would ingest. Also asserts the -trace-out file is valid JSON with
# per-document stage spans, and that the -log-format json wide event's
# request ID round-trips from stderr into /debug/events. A second
# scrape, of an xse-query run, checks the translation and ANFA
# instruments. Used by CI's bench-smoke job and `make debug-smoke`.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/xse-map" ./cmd/xse-map
go build -o "$tmp/xse-query" ./cmd/xse-query

# A small batch of copies of the golden fixture document.
mkdir -p "$tmp/in" "$tmp/out"
for i in 0 1 2 3; do
  cp testdata/xsemap/doc.xml "$tmp/in/doc$i.xml"
done

"$tmp/xse-map" \
  -mapping testdata/xsemap/map.xse \
  -source testdata/xsemap/class.dtd \
  -target testdata/xsemap/school.dtd \
  -batch "$tmp/in" -out "$tmp/out" -j 2 \
  -debug-addr 127.0.0.1:0 -debug-linger 10s \
  -trace-out "$tmp/trace.json" -log-format json \
  2> "$tmp/stderr.log" &
pid=$!

# The CLI announces the resolved :0 address on stderr before the batch
# starts; poll for it.
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's#.*debug server listening on http://\([^/]*\)/metrics.*#\1#p' "$tmp/stderr.log" | head -n1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "debug-smoke: no listen announcement; stderr:" >&2
  cat "$tmp/stderr.log" >&2
  kill "$pid" 2>/dev/null || true
  exit 1
fi

# Scrape during the linger window; the batch is tiny, so by the time
# curl lands the counters should be final.
ok=""
for _ in $(seq 1 100); do
  if curl -fsS "http://$addr/metrics" > "$tmp/metrics.txt" 2>/dev/null \
     && grep -q '^xse_pipeline_docs_total 4$' "$tmp/metrics.txt"; then
    ok=1
    break
  fi
  sleep 0.1
done
curl -fsS "http://$addr/metrics.json" > "$tmp/metrics.json"

fail=0
# The run's wide event (emitted at the start of the linger window)
# lands on stderr as a JSON line and in the flight recorder; correlate
# the two by request ID.
rid=""
for _ in $(seq 1 100); do
  rid="$(sed -n 's/.*"request_id":"\([0-9a-f]\{16\}\)".*/\1/p' "$tmp/stderr.log" | head -n1)"
  [ -n "$rid" ] && break
  sleep 0.1
done
if [ -z "$rid" ]; then
  echo "debug-smoke: no wide-event JSON line on stderr:" >&2
  cat "$tmp/stderr.log" >&2
  fail=1
elif ! curl -fsS "http://$addr/debug/events?event=cli&request_id=$rid" > "$tmp/events.json" \
    || ! grep -q "\"request_id\": *\"$rid\"" "$tmp/events.json"; then
  echo "debug-smoke: /debug/events has no cli event for $rid:" >&2
  cat "$tmp/events.json" >&2 || true
  fail=1
fi

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

if [ -z "$ok" ]; then
  echo "debug-smoke: /metrics never reported xse_pipeline_docs_total 4:" >&2
  cat "$tmp/metrics.txt" >&2 || true
  exit 1
fi
# The batch default is the streaming engine, so the scrape carries the
# xse_stream_* instruments alongside the pipeline document counters.
for want in \
  '# TYPE xse_pipeline_docs_total counter' \
  '# TYPE xse_stream_buffered_peak_bytes histogram' \
  '^xse_pipeline_docs_ok_total 4$' \
  '^xse_stream_docs_total 4$' \
  'xse_pipeline_doc_seconds_bucket{le="+Inf"} 4'; do
  if ! grep -q "$want" "$tmp/metrics.txt"; then
    echo "debug-smoke: /metrics missing: $want" >&2
    fail=1
  fi
done

# xse-query runs the translation and ANFA layers that xse-map does not
# link: its scrape carries their instruments, with the translation and
# the compiled evaluation counted.
"$tmp/xse-query" \
  -mapping testdata/xsemap/map.xse \
  -source testdata/xsemap/class.dtd \
  -target testdata/xsemap/school.dtd \
  -query './/cno/text()' -doc testdata/xsemap/forward.golden \
  -debug-addr 127.0.0.1:0 -debug-linger 10s \
  > /dev/null 2> "$tmp/query-stderr.log" &
qpid=$!
qaddr=""
for _ in $(seq 1 100); do
  qaddr="$(sed -n 's#.*debug server listening on http://\([^/]*\)/metrics.*#\1#p' "$tmp/query-stderr.log" | head -n1)"
  [ -n "$qaddr" ] && break
  sleep 0.1
done
qok=""
for _ in $(seq 1 100); do
  if [ -n "$qaddr" ] \
     && curl -fsS "http://$qaddr/metrics" > "$tmp/query-metrics.txt" 2>/dev/null \
     && grep -q '^xse_anfa_compiled_evals_total [1-9]' "$tmp/query-metrics.txt"; then
    qok=1
    break
  fi
  sleep 0.1
done
kill "$qpid" 2>/dev/null || true
wait "$qpid" 2>/dev/null || true
if [ -z "$qok" ]; then
  echo "debug-smoke: xse-query /metrics never counted a compiled evaluation; stderr:" >&2
  cat "$tmp/query-stderr.log" >&2
  fail=1
fi
for want in \
  '^xse_translate_total [1-9]' \
  '^xse_anfa_opt_states_removed_total' \
  '^xse_anfa_opt_merged_total' \
  '^xse_anfa_opt_programs_total' \
  '^xse_anfa_compiled_evals_total [1-9]'; do
  if [ -n "$qok" ] && ! grep -q "$want" "$tmp/query-metrics.txt"; then
    echo "debug-smoke: xse-query /metrics missing: $want" >&2
    fail=1
  fi
done

# /metrics.json and the trace file must both be valid JSON; the trace
# must hold the per-document spans (one stream span per document on
# the streaming default).
python3 - "$tmp/metrics.json" "$tmp/trace.json" <<'PY' || fail=1
import json, sys
json.load(open(sys.argv[1]))
trace = json.load(open(sys.argv[2]))
names = [e["name"] for e in trace["traceEvents"]]
for stage in ("pipeline.doc", "pipeline.stream"):
    if names.count(stage) != 4:
        sys.exit(f"trace has {names.count(stage)} {stage} spans, want 4")
PY

if [ "$fail" -ne 0 ]; then
  echo "debug-smoke: FAILED" >&2
  exit 1
fi
echo "debug-smoke: /metrics, /metrics.json and trace-out OK ($(wc -l < "$tmp/metrics.txt") exposition lines)"
