#!/usr/bin/env bash
# End-to-end smokes of the shipped binaries, shared by scripts/check_all.sh
# (stage 2) and the `ablation` job of .github/workflows/analysis.yml:
#   - wide path: K300 at k = 8, whose subgraphs of up to 299 vertices run
#     the bitmap kernel's five-word width, must count C(300, 8) and
#     C(299, 7) per vertex;
#   - clique guard: K300 at k = 4 must count C(300, 4) and report
#     count.edge_ops 44847, the clique leaf's C(300, 2) - 3 (the
#     closed-form tail's triangle pass costs a clique one popcount per
#     member), and count.recursion_calls 297 (the 3 roots of out-degree
#     below k - 1 are skipped before their build);
#   - demo graph: pivotscale_cli --k 4 must print the recorded vertex,
#     edge and 4-clique counts, so generator drift shows in the binary;
#   - flag ranges: pivotscale_cli --heuristic-min-nodes 4294967296 must
#     fail instead of wrapping to 0, pivotscale_prep --ordering bogus with
#     "unknown --ordering" and pivotscale_cli --per-vertex --top -5 with
#     "bad --top", each before any graph is loaded or generated;
#   - NodeId max: an edge list naming vertex 4294967295 must make
#     pivotscale_cli exit 1 with the id error, not a signal;
#   - re-sealed 2-cycle: a K4 artifact whose DAG gains the arc v -> u
#     next to u -> v, with its crc64 recomputed, must make
#     pivotscale_served answer an error, not a wrong count;
#   - served --threads: it caps every thread of pivotscale_served, so
#     --threads 1 --workers 2 over TCP must report workers=1 and a stdin
#     batch must count on a team of 1 ("exec.team":1); a line of 30,000
#     nested arrays must be answered with an error, over stdin and over
#     TCP, and the next request still counted;
#   - core split: pivotscale_served links pivotscale_core alone, so it
#     must hold no paper structure, Pivoter recursion, ordering, pipeline
#     prefix, artifact builder, DAG builder or edge-list loader symbol;
#   - no OpenMP: the exec layer runs on its own pool, so neither
#     pivotscale_served nor pivotscale_prep may need libgomp or hold a
#     GOMP_ or omp_ symbol.
#
# Usage: scripts/cli_smokes.sh [build-dir]   (default: build)
set -euo pipefail

build="${1:-build}"
cli="${build}/examples/pivotscale_cli"
prep="${build}/examples/pivotscale_prep"
served="${build}/examples/pivotscale_served"

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

fail() {
  if [[ -n "${out:-}" ]]; then echo "${out}"; fi
  echo "cli_smokes: $*"
  exit 1
}

echo "==> wide-path CLI smoke (K300, k = 8)"
k300="${tmp}/k300.el"
python3 -c "n = 300; print('\n'.join(f'{i} {j}' for i in range(n) for j in range(i + 1, n)))" > "${k300}"
out="$("${cli}" --graph "${k300}" --k 8)"
grep -qx '8-cliques: 1481062243936275' <<<"${out}" ||
  fail "K300: wrong 8-clique count"
out="$("${cli}" --graph "${k300}" --k 8 --per-vertex --top 1)"
grep -q ' 39494993171634 ' <<<"${out}" || fail "K300: wrong per-vertex count"

echo "==> clique-guard CLI smoke (K300, k = 4)"
out="$("${cli}" --graph "${k300}" --k 4 --telemetry-json="${tmp}/k300.json")"
grep -qx '4-cliques: 330791175' <<<"${out}" ||
  fail "K300: wrong 4-clique count"
grep -Eq '"count.edge_ops":44847[,}]' "${tmp}/k300.json" ||
  fail "K300: the triangle tail paid more than the clique leaf's edge ops"
grep -Eq '"count.recursion_calls":297[,}]' "${tmp}/k300.json" ||
  fail "K300: the short-root skip did not skip exactly the 3 short roots"

echo "==> demo-graph CLI smoke (generator output, k = 4)"
out="$("${cli}" --k 4)"
grep -q '^graph: 4088 vertices, 14961 edges' <<<"${out}" ||
  fail "demo graph: the generators' output drifted"
grep -qx '4-cliques: 83992' <<<"${out}" ||
  fail "demo graph: wrong 4-clique count"

echo "==> flag-range smoke (--heuristic-min-nodes past NodeId)"
if out="$("${cli}" --k 4 --heuristic-min-nodes 4294967296 2>&1)"; then
  fail "--heuristic-min-nodes 4294967296 was accepted"
fi
grep -q 'bad --heuristic-min-nodes' <<<"${out}" ||
  fail "--heuristic-min-nodes: wrong error"
! grep -q 'generated a demo graph' <<<"${out}" ||
  fail "--heuristic-min-nodes read after the graph"

echo "==> flag smoke (pivotscale_prep --ordering bogus, before the graph)"
if out="$("${prep}" --ordering bogus 2>&1)"; then
  fail "--ordering bogus was accepted"
fi
grep -q 'unknown --ordering' <<<"${out}" ||
  fail "--ordering bogus: wrong error"
! grep -qE '^(graph|loaded|no --graph)' <<<"${out}" ||
  fail "--ordering read after the graph"

echo "==> flag smoke (pivotscale_cli --top -5, before the graph)"
if out="$("${cli}" --k 4 --per-vertex --top -5 2>&1)"; then
  fail "--top -5 was accepted"
fi
grep -q 'bad --top' <<<"${out}" || fail "--top -5: wrong error"
! grep -q 'generated a demo graph' <<<"${out}" ||
  fail "--top read after the graph"

echo "==> NodeId-max smoke (vertex 4294967295 in an edge list)"
printf '4294967295 0\n1 2\n' > "${tmp}/max_id.el"
status=0
out="$("${cli}" --graph "${tmp}/max_id.el" --k 3 2>&1)" || status=$?
[[ "${status}" == "1" ]] || fail "vertex 4294967295: exit ${status}, not 1"
grep -q 'vertex id 4294967295 exceeds the largest NodeId' <<<"${out}" ||
  fail "vertex 4294967295: wrong error"

echo "==> re-sealed 2-cycle smoke (K4 artifact, pivotscale_served)"
printf '0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n' > "${tmp}/k4.el"
"${prep}" --graph "${tmp}/k4.el" --out "${tmp}/k4.psx" > /dev/null
python3 - "${tmp}/k4.psx" <<'PY'
# Row v of the DAG takes u in place of its first entry above u, for the
# first arc u -> v where that keeps row v strictly increasing; then the
# trailing CRC-64/XZ is recomputed (layout: src/store/artifact.h).
import struct, sys
path = sys.argv[1]
b = bytearray(open(path, 'rb').read())
n, graph_entries, dag_entries = struct.unpack_from('<QQQ', b, 16)
name_len, = struct.unpack_from('<I', b, 56)
dag_offsets_at = 64 + name_len + 8 * (n + 1) + 4 * graph_entries + 4 * n
dag_at = dag_offsets_at + 8 * (n + 1)
off = struct.unpack_from(f'<{n + 1}Q', b, dag_offsets_at)
nb = list(struct.unpack_from(f'<{dag_entries}I', b, dag_at))
u, v, e = next((u, v, e) for u in range(n) for v in nb[off[u]:off[u + 1]]
               for e in range(off[v], off[v + 1]) if nb[e] > u)
nb[e] = u
struct.pack_into(f'<{dag_entries}I', b, dag_at, *nb)
crc = 0xFFFFFFFFFFFFFFFF
for x in b[:-8]:
    crc ^= x
    for _ in range(8):
        crc = (crc >> 1) ^ (0xC96C5795D7870F42 if crc & 1 else 0)
struct.pack_into('<Q', b, len(b) - 8, crc ^ 0xFFFFFFFFFFFFFFFF)
open(path, 'wb').write(b)
PY
out="$(echo "{\"id\":1,\"graph\":\"${tmp}/k4.psx\",\"k\":3}" | "${served}")"
grep -q '"ok":false,"error":".*dag row [0-9]* is not the graph neighbors' \
  <<<"${out}" || fail "re-sealed 2-cycle K4: served did not answer an error"

echo "==> served --threads 1 (stdin: team of 1, deep nesting answered)"
"${prep}" --graph "${k300}" --out "${tmp}/k300.psx" > /dev/null
request="{\"id\":2,\"graph\":\"${tmp}/k300.psx\",\"k\":4}"
deep="$(python3 -c "print('[' * 30000)")"
out="$(printf '%s\n%s\n' "${deep}" "${request}" |
       "${served}" --threads 1 --telemetry-json "${tmp}/threads1.json")"
grep -q '"ok":false,"error":"ParseJson: nesting deeper than 64' \
  <<<"${out}" || fail "stdin: the deep line was not answered with an error"
grep -q '"id":2,"ok":true.*"count":"330791175"' <<<"${out}" ||
  fail "stdin: the request after the deep line was not counted"
grep -Eq '"exec.team":1[,}]' "${tmp}/threads1.json" ||
  fail "stdin --threads 1: a counting run's team was not 1"

echo "==> served --threads 1 --workers 2 (TCP: workers clamped, deep line)"
"${served}" --threads 1 --workers 2 --port 0 > "${tmp}/served.log" &
served_pid=$!
trap 'kill -9 "${served_pid}" 2>/dev/null || true; rm -rf "${tmp}"' EXIT
for _ in $(seq 1 100); do
  grep -q 'listening' "${tmp}/served.log" && break
  sleep 0.1
done
out="$(cat "${tmp}/served.log")"
grep -q '(workers=1,' <<<"${out}" ||
  fail "--threads 1 --workers 2: the listening line is not workers=1"
port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\) .*/\1/p' <<<"${out}")"
out="$(python3 - "${port}" "${deep}" "${request}" <<'PY'
import socket, sys
port, deep, request = sys.argv[1:]
with socket.create_connection(("127.0.0.1", int(port)), timeout=30) as s:
    s.sendall(f"{deep}\n{request}\n\n".encode())
    data = b""
    while data.count(b"\n") < 2:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
print(data.decode(), end="")
PY
)"
grep -q '"ok":false,"error":"ParseJson: nesting deeper than 64' \
  <<<"${out}" || fail "TCP: the deep line was not answered with an error"
grep -q '"id":2,"ok":true.*"count":"330791175"' <<<"${out}" ||
  fail "TCP: the request after the deep line was not counted"
kill -TERM "${served_pid}"
wait "${served_pid}" || fail "served did not drain cleanly after SIGTERM"
trap 'rm -rf "${tmp}"' EXIT

echo "==> core split (pivotscale_served links only the reader and counting)"
split_re='DenseSubgraph|SparseSubgraph|RemapSubgraph|PivotCounter<'
split_re+='|ApproxCoreOrdering|PrepareDag|BuildArtifact'
split_re+='|Directionalize|BuildGraph|ReadEdgeList'
out=""
n="$(nm -C "${served}" | grep -cE "${split_re}" || true)"
[[ "${n}" == "0" ]] ||
  fail "pivotscale_served links ${n} symbols matching ${split_re}"

echo "==> no OpenMP runtime in the production binaries"
for bin in "${served}" "${prep}"; do
  out="$(readelf -d "${bin}" | grep -i 'NEEDED.*libgomp' || true)"
  [[ -z "${out}" ]] || fail "${bin} needs libgomp"
  out="$(nm "${bin}" | awk '{print $NF}' | grep -E '^(GOMP_|omp_)' || true)"
  [[ -z "${out}" ]] || fail "${bin} holds OpenMP symbols"
done
