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
#      8, and all-up-to-k every size up to k of all-k),
#      scripts/cli_smokes.sh (the wide-path,
#      clique-guard, demo-graph, flag-range, NodeId-max and served
#      --threads smokes of the shipped binaries, and the core-split
#      check: the pivotscale_served
#      linked against pivotscale_core alone must hold no DenseSubgraph,
#      SparseSubgraph, RemapSubgraph, PivotCounter<, ApproxCoreOrdering,
#      PrepareDag, BuildArtifact, Directionalize, BuildGraph or
#      ReadEdgeList symbol, and no libgomp or OpenMP symbol in it or in
#      pivotscale_prep), and the benchmark
#      self-test (perfbench/run.py --smoke: exact counts on every
#      workload, a corrupted reference that must fail, op counts that must
#      repeat)
#   3. clang-tidy over src/        when a clang-tidy binary exists
#   4. TSan build + race shards    (build-check-tsan/; no suppressions)
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

echo "==> [2/4] CLI smokes (scripts/cli_smokes.sh)"
scripts/cli_smokes.sh build-check

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

echo "==> [4/4] TSan build + race/net/service/check/exec shards"
cmake -B build-check-tsan -S . -DPIVOTSCALE_TSAN=ON >/dev/null
cmake --build build-check-tsan -j"${JOBS}"
ctest --test-dir build-check-tsan -R 'race|net|service|check|exec' \
  --output-on-failure

echo "==> all analysis stages passed"
