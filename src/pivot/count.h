// The counting driver over a directionalized DAG.
//
// This is the counting phase of the pipeline: every root vertex of the DAG
// is an independent task (its induced subgraph is thread-local). The
// driver runs the roots on the exec layer (src/exec/executor.h), weighted
// by the cost estimate (out_degree + 1)^2, with one counter per worker,
// merging the per-worker counters serially at the end
// (pivot/count_driver.h). It counts with the bitmap kernel
// (pivot/bitmap_counter.h). Options select the counting mode, per-vertex
// attribution and operation-count instrumentation. The paper's subgraph
// structures and per-root work traces are reached through CountCliquesOn
// (pivot/count_on.h) instead. See docs/parallelism.md and
// docs/algorithm.md.
#ifndef PIVOTSCALE_PIVOT_COUNT_H_
#define PIVOTSCALE_PIVOT_COUNT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "pivot/clique_leaves.h"
#include "pivot/profile.h"
#include "pivot/stats.h"
#include "util/uint128.h"

namespace pivotscale {

class TelemetryRegistry;

struct CountOptions {
  std::uint32_t k = 8;
  CountMode mode = CountMode::kSingleK;
  // Accumulate per-vertex k-clique participation counts (kSingleK only).
  bool per_vertex = false;
  // Disable Section V-A early termination (ablation only; slower, same
  // counts). This also turns off the closed-form tail, which settles nodes
  // with r >= k - 3 (bitmap kernel; r >= k - 2 on the paper structures) in
  // kSingleK and kAllUpToK runs without per-vertex attribution
  // (pivot/clique_leaves.h).
  bool early_termination = true;
  // Count recursion operations (Table II proxy); small overhead.
  bool collect_op_stats = false;
  // 0 = every thread the process's thread capacity has free
  // (exec/executor.h); explicit requests are also capped by it, so
  // concurrent callers cannot oversubscribe the machine.
  int num_threads = 0;
  // When non-null, the driver records "count.*" metrics into this registry:
  // per-thread busy-second and chunk-count series, work-item and dynamic-
  // chunk counters, recursion-op totals (implies op-stat collection), and
  // workspace/thread-count gauges. Not owned; must outlive the call.
  TelemetryRegistry* telemetry = nullptr;
};

struct CountResult {
  // k-cliques of the target size (in kAllK / kAllUpToK mode, per_size[k]
  // when k is in range, otherwise 0).
  BigCount total{};
  // per_size[s] = number of s-cliques, derived from `profile` once after
  // the merge: every size in kAllK, sizes up to k in kAllUpToK (larger
  // sizes read 0), all zero in kSingleK. Its length is the DAG's max
  // out-degree + 3 in every mode.
  std::vector<BigCount> per_size;
  // The merged (r, np) leaf histogram of kAllK / kAllUpToK runs (empty in
  // kSingleK): exact for every size in kAllK, for sizes up to k in
  // kAllUpToK. Which leaves it holds depends only on the kernel, never on
  // the thread count.
  CliqueProfile profile;
  // Per-vertex participation counts; filled when per_vertex was set.
  std::vector<BigCount> per_vertex;
  // Aggregated recursion operations (op stats mode) of the run's kernel.
  // `calls` counts recursion nodes on every kernel. On the bitmap kernel
  // `edge_ops` is one per row popcount of a pivot scan or tail pass,
  // `induces` one per child bitset and `memberships` is 0; on the paper
  // structures they count adjacency entries scanned, child sets narrowed
  // and mark/removed tests. See pivot/stats.h and docs/algorithm.md.
  OpCounters ops;
  // Counting wall time.
  double seconds = 0;
  // Sum of the per-thread subgraph workspace and leaf histogram
  // footprints.
  std::size_t workspace_bytes = 0;
  // Per-thread busy seconds, for the load-balance CoV analysis (Section IV).
  // Sized to the team the counting region actually ran (which may be
  // smaller than the requested thread count, e.g. when the run is nested
  // in another region), so imbalance stats carry no phantom zeros.
  std::vector<double> thread_busy_seconds;
};

// Counts cliques on a directionalized DAG with the bitmap kernel
// (pivot/bitmap_counter.h). The DAG must come from Directionalize() (each
// undirected edge stored once, acyclic).
CountResult CountCliques(const Graph& dag, const CountOptions& options);

// One vertex's clique participation count.
struct VertexCount {
  NodeId vertex = 0;
  BigCount count{};
};

// The `top` vertices of `per_vertex` (CountResult::per_vertex) with the
// most cliques: count descending, ties by vertex id, vertices in no clique
// left out (so fewer than `top` may come back).
std::vector<VertexCount> RankVerticesByCount(
    std::span<const BigCount> per_vertex, std::size_t top);

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_COUNT_H_
