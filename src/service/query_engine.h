// Batched clique-query engine over preprocessed .psx artifacts.
//
// The serving model: artifacts (src/store/) hold the query-independent
// pipeline prefix — graph, ordering, DAG — so answering a query is only
// the counting phase. The engine adds the layers a serving system needs
// on top:
//
//  * Grouping and deadlines. RunBatch is the one place a batch is grouped
//    by artifact: groups run in order of first appearance, and each group
//    first answers its members whose deadline has passed with "deadline
//    exceeded" (without loading or counting for them), then the invalid
//    ones, then loads the artifact and counts for the rest. A query that
//    expires *while* its group counts still gets its answer — counting
//    runs are not interruptible.
//
//  * An LRU cache of loaded artifacts under a byte budget. Entries are
//    shared_ptrs, so eviction never frees an artifact a running batch
//    still uses; the budget is soft in exactly one way: the most recently
//    touched artifact always stays resident even if it alone exceeds it.
//
//  * Per-artifact count memoization. A group's k-queries are deduplicated
//    into one counting run: a single kAllUpToK run at the group's largest
//    k answers every pending k-query on that graph (an all-k query
//    upgrades the run to kAllK, which covers every size). The per-size
//    table is memoized with one coverage bound — the largest size it is
//    exact for — so later batches whose k is already covered skip
//    counting entirely. Per-vertex queries need kSingleK per-vertex runs;
//    those memoize per (k).
//
// Thread safety: RunBatch may be called concurrently from any number of
// threads. The cache map has its own mutex; each artifact entry has a
// mutex held while counting on that artifact, so concurrent batches on
// one graph serialize (the second gets memo hits) while batches on
// different graphs count in parallel. Each counting run goes through the
// exec-layer scheduler, which claims its team from the process-wide
// thread capacity (exec/executor.h): when several batches count at once
// each run's team shrinks so the total stays within the machine, and all
// runs share the exec layer's one pool of helper threads.
//
// Telemetry (when a registry is configured): one "service.batch" span per
// RunBatch call and one "service.count" span per counting run, and
// counters "service.queries" and "service.errors" (both include expired
// queries), "service.cache_hits" / "service.cache_misses",
// "service.memo_hits", "service.count_runs", "service.per_vertex_runs",
// "service.evictions", plus the "service.cache_bytes" gauge. Because
// counting runs straight off the stored DAG, a served batch records *no*
// "heuristic" / "ordering" / "directionalize" spans — the acceptance
// signal that the preprocessed phases were skipped.
#ifndef PIVOTSCALE_SERVICE_QUERY_ENGINE_H_
#define PIVOTSCALE_SERVICE_QUERY_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pivot/count.h"
#include "store/artifact.h"
#include "util/uint128.h"

namespace pivotscale {

class TelemetryRegistry;

// One clique-count request against a stored artifact.
struct ServiceQuery {
  std::string graph;        // .psx artifact path (the cache key)
  std::uint32_t k = 8;      // target clique size (>= 1)
  bool all_k = false;       // report every clique size instead of one k
  bool per_vertex = false;  // top-N per-vertex participation counts
  std::uint32_t top = 1;    // how many top vertices to report (per_vertex)
  // Absolute deadline; time_point::max() means none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

// The deadline `ms` milliseconds from now (ms >= 0), or none
// (time_point::max()) when that lies beyond what the steady clock holds.
std::chrono::steady_clock::time_point DeadlineAfter(std::int64_t ms);

struct ServiceResult {
  bool ok = false;
  std::string error;        // set when !ok
  bool deadline_exceeded = false;  // expired before its group ran
  std::uint32_t k = 0;      // echo of the query
  bool all_k = false;
  BigCount total{};         // k-cliques at the query's k (all modes)
  // per_size[s] = number of s-cliques, s in [1, per_size.size());
  // filled for all_k queries (index 0 unused).
  std::vector<BigCount> per_size;
  // Top vertices by k-clique participation, descending; per_vertex only.
  std::vector<VertexCount> top_vertices;
  bool artifact_cache_hit = false;  // artifact was already resident
  bool memo_hit = false;            // answered without a counting run
  double seconds = 0;               // wall time inside the engine
};

struct QueryEngineOptions {
  // Cache byte budget over GraphArtifact::HeapBytes() of resident entries.
  std::size_t cache_byte_budget = std::size_t{1} << 30;
  // Not owned; must outlive the engine.
  TelemetryRegistry* telemetry = nullptr;
};

class QueryEngine {
 public:
  explicit QueryEngine(const QueryEngineOptions& options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Answers a batch. Results are positionally aligned with `queries`.
  // Per-query failures (expired deadline, missing artifact, invalid k)
  // come back as ok = false results; the call itself only throws on
  // engine misuse.
  std::vector<ServiceResult> RunBatch(
      const std::vector<ServiceQuery>& queries);

  // Convenience single-query form.
  ServiceResult RunQuery(const ServiceQuery& query);

  // Loads an artifact into the cache ahead of traffic; throws on failure.
  void Preload(const std::string& path);

  // Cache introspection (tests, ops).
  std::size_t CachedArtifacts() const;
  std::size_t CachedBytes() const;

 private:
  struct Entry {
    std::mutex count_mutex;  // serializes counting + memo updates
    GraphArtifact artifact;
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;  // LRU stamp; guarded by cache_mutex_

    // Memo: per_size[s] is exact for s <= exact_up_to; kAllSizes after a
    // kAllK run. Guarded by count_mutex.
    static constexpr std::uint32_t kAllSizes =
        std::numeric_limits<std::uint32_t>::max();
    std::uint32_t exact_up_to = 0;
    std::vector<BigCount> per_size;
    // Per-vertex participation runs memoized per k (kSingleK results).
    struct PerVertexMemo {
      BigCount total{};
      std::vector<BigCount> counts;
    };
    std::map<std::uint32_t, PerVertexMemo> per_vertex_by_k;
  };

  std::shared_ptr<Entry> GetOrLoad(const std::string& path,
                                   bool* cache_hit);
  void EvictOverBudget();  // requires cache_mutex_ held

  // Runs every query of one group (same artifact) and writes results.
  void ServeGroup(const std::shared_ptr<Entry>& entry,
                  const std::vector<ServiceQuery>& queries,
                  const std::vector<std::size_t>& indices,
                  std::vector<ServiceResult>* results);

  QueryEngineOptions options_;
  mutable std::mutex cache_mutex_;
  std::map<std::string, std::shared_ptr<Entry>> cache_;
  std::size_t cached_bytes_ = 0;
  std::uint64_t use_clock_ = 0;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_SERVICE_QUERY_ENGINE_H_
