#!/usr/bin/env bash
# End-to-end smoke test for the query-service subsystem: generate a graph,
# preprocess it into a .psx artifact, answer a batch of mixed-k NDJSON
# queries through pivotscale_served in stdin mode (no --port), and diff
# every returned count against a standalone pivotscale_cli run on the same
# graph. Also asserts the served batch ran zero pipeline phases (no
# heuristic/ordering/directionalize in the serve telemetry) and exactly one
# counting run, and that a request with "deadline_ms":0 answers "deadline
# exceeded" without adding a counting run.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail

build="${1:-build}"
cli="$build/examples/pivotscale_cli"
prep="$build/examples/pivotscale_prep"
serve="$build/examples/pivotscale_served"

for bin in "$cli" "$prep" "$serve"; do
  if [[ ! -x "$bin" ]]; then
    echo "serve_smoke: missing binary $bin (build the examples first)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# 1. Deterministic demo graph (the CLI's bare-run generator), saved as .psg.
"$cli" --save-binary "$tmp/demo.psg" > /dev/null
echo "serve_smoke: generated $tmp/demo.psg"

# 2. Preprocess it into a .psx artifact.
"$prep" --graph "$tmp/demo.psg" --out "$tmp/demo.psx" > /dev/null
echo "serve_smoke: prepped $tmp/demo.psx"

# 3. One batch of mixed-k queries, with repeats, ids = k for correlation.
ks="3 4 5 6 7 8"
batch="$tmp/batch.ndjson"
: > "$batch"
for k in $ks $ks; do
  printf '{"id":%d,"graph":"%s","k":%d}\n' "$k" "$tmp/demo.psx" "$k" \
    >> "$batch"
done
# A same-graph request that has expired before its group counts.
printf '{"id":99,"graph":"%s","k":8,"deadline_ms":0}\n' "$tmp/demo.psx" \
  >> "$batch"
"$serve" --telemetry-json "$tmp/serve_report.json" < "$batch" \
  > "$tmp/responses.ndjson"

# 4. Every response must be ok, and every count must match a fresh
#    standalone pipeline run at that k.
fail=0
for k in $ks; do
  ref="$("$cli" --graph "$tmp/demo.psg" --k "$k" \
        | sed -n "s/^${k}-cliques: //p")"
  line="$(grep "\"id\":${k}," "$tmp/responses.ndjson" | head -n 1)"
  got="$(printf '%s' "$line" | sed -n 's/.*"count":"\([0-9]*\)".*/\1/p')"
  if [[ "$line" != *'"ok":true'* || -z "$got" || "$got" != "$ref" ]]; then
    echo "serve_smoke: MISMATCH at k=$k: cli=$ref serve=${got:-<none>}" >&2
    echo "  response line: ${line:-<missing>}" >&2
    fail=1
  else
    echo "serve_smoke: k=$k count=$got (matches cli)"
  fi
done

ok_lines="$(grep -c '"ok":true' "$tmp/responses.ndjson" || true)"
if [[ "$ok_lines" -ne 12 ]]; then
  echo "serve_smoke: expected 12 ok response lines, got $ok_lines" >&2
  fail=1
fi
expired="$(grep '"id":99,' "$tmp/responses.ndjson" || true)"
if [[ "$expired" != *'"error":"deadline exceeded"'* ]]; then
  echo "serve_smoke: deadline_ms 0 not answered as expired:" \
    "${expired:-<missing>}" >&2
  fail=1
fi
lines="$(wc -l < "$tmp/responses.ndjson")"
if [[ "$lines" -ne 13 ]]; then
  echo "serve_smoke: expected 13 response lines, got $lines" >&2
  fail=1
fi

# 5. The served batch must not have touched any pipeline phase: the serve
#    telemetry has service.*/count.* records but no heuristic, ordering,
#    or directionalize entries — and exactly one counting run covered all
#    twelve queries (the expired one must not add a second).
report="$tmp/serve_report.json"
for phase in heuristic ordering directionalize; do
  if grep -q "$phase" "$report"; then
    echo "serve_smoke: serve telemetry unexpectedly mentions '$phase'" >&2
    fail=1
  fi
done
if ! grep -q '"service.count_runs":1\b' "$report"; then
  echo "serve_smoke: expected exactly one counting run; report says:" >&2
  grep -o '"service\.[a-z_]*":[0-9]*' "$report" >&2 || true
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  echo "serve_smoke: FAILED" >&2
  exit 1
fi
echo "serve_smoke: OK (one counting run answered all 12 queries)"
