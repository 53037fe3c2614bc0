#!/usr/bin/env sh
# Streaming-migration smoke: the streaming default and the generated
# XSLT stylesheets run by -via-xslt (the paper's second realization of
# σd and σd⁻¹, an independent implementation) must produce
# byte-identical output in both directions, σd and -invert
# (single-document and batch, -j 1 and -j 8), and a large
# document and its σd image must each migrate in bounded memory — peak
# RSS well below what materializing the trees would need, enforced
# under a GOMEMLIMIT far below the tree size. Used by CI's bench-smoke
# job and `make stream-smoke`.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/xse-map" ./cmd/xse-map

MAP="-mapping testdata/xsemap/map.xse -source testdata/xsemap/class.dtd -target testdata/xsemap/school.dtd"

# 1. Single document: stream (default) vs -via-xslt, byte for byte.
"$tmp/xse-map" $MAP -o "$tmp/stream.xml" testdata/xsemap/doc.xml
"$tmp/xse-map" $MAP -via-xslt -o "$tmp/xslt.xml" testdata/xsemap/doc.xml
cmp "$tmp/stream.xml" "$tmp/xslt.xml" || {
  echo "stream-smoke: single-doc stream output differs from -via-xslt" >&2
  exit 1
}

# 1b. The inverse of that output: stream (default) vs -via-xslt.
"$tmp/xse-map" $MAP -invert -o "$tmp/inv-stream.xml" "$tmp/stream.xml"
"$tmp/xse-map" $MAP -invert -via-xslt -o "$tmp/inv-xslt.xml" "$tmp/stream.xml"
cmp "$tmp/inv-stream.xml" "$tmp/inv-xslt.xml" || {
  echo "stream-smoke: single-doc inverse stream output differs from -via-xslt" >&2
  exit 1
}

# 2. Batch: the worker count must not change any byte in either mode.
mkdir -p "$tmp/in"
for i in 0 1 2 3 4 5 6 7; do
  cp testdata/xsemap/doc.xml "$tmp/in/doc$i.xml"
done
for mode in stream xslt; do
  for j in 1 8; do
    out="$tmp/out-$mode-j$j"
    mkdir -p "$out"
    flag=""
    [ "$mode" = xslt ] && flag="-via-xslt"
    "$tmp/xse-map" $MAP $flag -batch "$tmp/in" -out "$out" -j "$j"
  done
done
for d in "$tmp/out-stream-j8" "$tmp/out-xslt-j1" "$tmp/out-xslt-j8"; do
  diff -r "$tmp/out-stream-j1" "$d" > /dev/null || {
    echo "stream-smoke: batch outputs differ: $tmp/out-stream-j1 vs $d" >&2
    exit 1
  }
done

# 2b. Batch inverse of the forward outputs, in both modes and at both
# worker counts.
for mode in stream xslt; do
  for j in 1 8; do
    out="$tmp/inv-$mode-j$j"
    mkdir -p "$out"
    flag=""
    [ "$mode" = xslt ] && flag="-via-xslt"
    "$tmp/xse-map" $MAP -invert $flag -batch "$tmp/out-stream-j1" -out "$out" -j "$j"
  done
done
for d in "$tmp/inv-stream-j8" "$tmp/inv-xslt-j1" "$tmp/inv-xslt-j8"; do
  diff -r "$tmp/inv-stream-j1" "$d" > /dev/null || {
    echo "stream-smoke: batch inverse outputs differ: $tmp/inv-stream-j1 vs $d" >&2
    exit 1
  }
done

# 3. Bounded memory: a ~32 MiB document streams through σd under a
# GOMEMLIMIT far below the ~10x footprint of building both trees, and
# peak RSS stays below the input size itself. The class unit below is
# one conforming (class)* child of the db root.
python3 - "$tmp/big.xml" "$tmp/mid.xml" <<'PY'
import sys
unit = ("<class><cno>CS331</cno><title>DB</title>"
        "<type><regular><prereq>"
        "<class><cno>CS210</cno><title>Algo</title><type><project>p</project></type></class>"
        "</prereq></regular></type></class>\n")
# big.xml is ~36 MB; mid.xml's σd image is ~36 MB (the image of a
# class unit is about nine times its size).
for path, units in ((sys.argv[1], 200_000), (sys.argv[2], 21_500)):
    with open(path, "w") as f:
        f.write("<db>\n")
        for _ in range(units):
            f.write(unit)
        f.write("</db>\n")
PY
# bounded runs one xse-map migration of the document $2 (extra flags
# in $3, output to $4) under GOMEMLIMIT=32MiB, in a fresh process so
# its peak RSS is its own, and fails unless that peak stays below the
# input size.
bounded() {
  python3 - "$tmp/xse-map" "$1" "$2" "$3" "$4" <<'PY'
import os, resource, subprocess, sys
xse_map, what, doc, flags, out = sys.argv[1:6]
doc_bytes = os.path.getsize(doc)
env = dict(os.environ, GOMEMLIMIT="32MiB")
cmd = [xse_map,
       "-mapping", "testdata/xsemap/map.xse",
       "-source", "testdata/xsemap/class.dtd",
       "-target", "testdata/xsemap/school.dtd",
       "-max-input", "-1", "-o", out] + flags.split() + [doc]
rc = subprocess.call(cmd, env=env)
if rc != 0:
    sys.exit(f"stream-smoke: large {what} failed (exit {rc})")
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
print(f"stream-smoke: {what}: {doc_bytes/1e6:.0f} MB input, peak RSS {peak/1e6:.0f} MB")
if peak >= doc_bytes:
    sys.exit(f"stream-smoke: {what}: peak RSS {peak} >= input size {doc_bytes}; "
             "the streaming path is buffering the document")
PY
}
bounded "forward migration" "$tmp/big.xml" "" /dev/null

# 4. The same for σd⁻¹ on a ~36 MB σd image, whose inverse mapped
# forward again must reproduce the image byte for byte.
"$tmp/xse-map" $MAP -max-input -1 -o "$tmp/mid-target.xml" "$tmp/mid.xml"
bounded "inverse migration" "$tmp/mid-target.xml" "-invert" "$tmp/mid-back.xml"
"$tmp/xse-map" $MAP -max-input -1 -o "$tmp/mid-again.xml" "$tmp/mid-back.xml"
cmp "$tmp/mid-target.xml" "$tmp/mid-again.xml" || {
  echo "stream-smoke: σd(σd⁻¹(σd(T))) differs from σd(T) on the large image" >&2
  exit 1
}

echo "stream-smoke: stream/XSLT equivalence and bounded-memory OK in both directions"
