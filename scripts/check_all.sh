#!/usr/bin/env bash
# One-shot local analysis gate (docs/analysis.md): everything CI runs,
# runnable before a push. Stages:
#   1. tools/lint.py               project-invariant linter
#   2. -Werror build + full ctest  (build-check/), then the same suite
#      again under OMP_NUM_THREADS=2 so a 2-thread budget exercises real
#      multi-worker executor teams even on single-core runners, a
#      micro_exec scheduler-smoke run (one whole-root counting row), the
#      small-scale ablation_design exactness check (early termination off,
#      all-up-to-k, all-k, the clique profile and the paper's dense
#      structure must match single-k on every suite graph at k = 3, 4, 5,
#      8, and all-up-to-k every size up to k of all-k; its vertex- vs edge-parallel block and DECOMPOSITION MISMATCH
#      exit went with the deleted root splitting), the wide-path CLI smoke
#      (K300 at k = 8: subgraphs of up to 299 vertices, five words, must
#      count C(300, 8) and C(299, 7) per vertex), the clique-guard smoke
#      (K300 at k = 4 must count C(300, 4) and pay the clique leaf's
#      C(300, 2) - 3 = 44847 edge ops: the closed-form tail's triangle
#      pass costs a clique one popcount per member; and 297 recursion
#      calls: the 3 roots of out-degree below k - 1 are skipped before
#      their build), the flag-range smoke (pivotscale_cli
#      --heuristic-min-nodes 4294967296 must fail instead of wrapping to
#      0, and before it generates the demo graph; pivotscale_prep
#      --ordering bogus must fail with "unknown --ordering" before any
#      graph line), the core-split check (the Release pivotscale_served, linked
#      against pivotscale_core alone, must hold no DenseSubgraph or
#      SparseSubgraph symbol), and the benchmark
#      self-test (perfbench/run.py --smoke: exact counts on every
#      workload, a corrupted reference that must fail, op counts that must
#      repeat)
#   3. clang-tidy over src/        when a clang-tidy binary exists
#   4. TSan build + race shards    (build-check-tsan/)
# Stage 3 is skipped with a note on toolchains without clang-tidy (the
# config is .clang-tidy; CI always runs it). Pass --fast to stop after
# stage 2. Exits non-zero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==> [1/4] lint.py"
python3 tools/lint.py

echo "==> [2/4] -Werror build + tests"
cmake -B build-check -S . -DPIVOTSCALE_WERROR=ON >/dev/null
cmake --build build-check -j"${JOBS}"
ctest --test-dir build-check --output-on-failure -j"${JOBS}"

echo "==> [2/4] OMP_NUM_THREADS=2 shard (multi-worker executor teams)"
OMP_NUM_THREADS=2 ctest --test-dir build-check --output-on-failure \
  -R 'exec|pivot|driver_crosscheck|race|telemetry'

echo "==> [2/4] micro_exec scheduler smoke"
./build-check/bench/micro_exec --benchmark_min_time=0.01

echo "==> [2/4] ablation_design exactness (every suite graph, scale 0.05)"
SUITE=dblp-like,skitter-like,baidu-like,wikitalk-like,orkut-like
SUITE+=,livejournal-like,webedu-like,friendster-like
for k in 3 4 5 8; do
  ./build-check/bench/ablation_design --scale 0.05 --k "${k}" \
    --datasets "${SUITE}" >/dev/null
done

echo "==> [2/4] wide-path CLI smoke (K300, k = 8)"
K300="$(mktemp -d)/k300.el"
python3 -c "n = 300; print('\n'.join(f'{i} {j}' for i in range(n) for j in range(i + 1, n)))" > "${K300}"
out="$(./build-check/examples/pivotscale_cli --graph "${K300}" --k 8)"
grep -qx '8-cliques: 1481062243936275' <<<"${out}" ||
  { echo "${out}"; echo "K300: wrong 8-clique count"; exit 1; }
out="$(./build-check/examples/pivotscale_cli --graph "${K300}" --k 8 \
  --per-vertex --top 1)"
grep -q ' 39494993171634 ' <<<"${out}" ||
  { echo "${out}"; echo "K300: wrong per-vertex count"; exit 1; }
echo "==> [2/4] clique-guard CLI smoke (K300, k = 4)"
out="$(./build-check/examples/pivotscale_cli --graph "${K300}" --k 4 \
  --telemetry-json="${K300%.el}.json")"
grep -qx '4-cliques: 330791175' <<<"${out}" ||
  { echo "${out}"; echo "K300: wrong 4-clique count"; exit 1; }
grep -Eq '"count.edge_ops":44847[,}]' "${K300%.el}.json" ||
  { echo "K300: the triangle tail paid more than the clique leaf's edge ops"
    exit 1; }
grep -Eq '"count.recursion_calls":297[,}]' "${K300%.el}.json" ||
  { echo "K300: the short-root skip did not skip exactly the 3 short roots"
    exit 1; }
rm -r "$(dirname "${K300}")"

echo "==> [2/4] flag-range smoke (--heuristic-min-nodes past NodeId)"
if out="$(./build-check/examples/pivotscale_cli --k 4 \
    --heuristic-min-nodes 4294967296 2>&1)"; then
  echo "${out}"; echo "--heuristic-min-nodes 4294967296 was accepted"; exit 1
fi
grep -q 'bad --heuristic-min-nodes' <<<"${out}" ||
  { echo "${out}"; echo "--heuristic-min-nodes: wrong error"; exit 1; }
! grep -q 'generated a demo graph' <<<"${out}" ||
  { echo "${out}"; echo "--heuristic-min-nodes read after the graph"; exit 1; }
echo "==> [2/4] flag smoke (pivotscale_prep --ordering bogus, before the graph)"
if out="$(./build-check/examples/pivotscale_prep --ordering bogus 2>&1)"; then
  echo "${out}"; echo "--ordering bogus was accepted"; exit 1
fi
grep -q 'unknown --ordering' <<<"${out}" ||
  { echo "${out}"; echo "--ordering bogus: wrong error"; exit 1; }
! grep -qE '^(graph|loaded|no --graph)' <<<"${out}" ||
  { echo "${out}"; echo "--ordering read after the graph"; exit 1; }

echo "==> [2/4] core split (no paper structure in pivotscale_served)"
structures="$(nm -C build-check/examples/pivotscale_served |
  grep -cE 'DenseSubgraph|SparseSubgraph' || true)"
[[ "${structures}" == "0" ]] ||
  { echo "pivotscale_served links ${structures} DenseSubgraph/SparseSubgraph"
    echo "symbols; it must link pivotscale_core alone"; exit 1; }

echo "==> [2/4] perfbench smoke (exact counts, corrupted reference, op counts)"
python3 perfbench/run.py --smoke

if [[ "${FAST}" == "1" ]]; then
  echo "==> --fast: skipping clang-tidy and TSan stages"
  exit 0
fi

echo "==> [3/4] clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # The -Werror tree exports compile_commands.json (always on).
  git ls-files 'src/*.cc' | xargs -r clang-tidy -p build-check --quiet
else
  echo "    clang-tidy not installed; skipped (CI runs it — see"
  echo "    .github/workflows/analysis.yml)"
fi

echo "==> [4/4] TSan build + race/net/service shards"
cmake -B build-check-tsan -S . -DPIVOTSCALE_TSAN=ON >/dev/null
cmake --build build-check-tsan -j"${JOBS}"
ctest --test-dir build-check-tsan -R 'race|net|service|check' \
  --output-on-failure

echo "==> all analysis stages passed"
