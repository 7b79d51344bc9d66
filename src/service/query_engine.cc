#include "service/query_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "util/check.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace pivotscale {

namespace {

// Largest clique size with a nonzero count; bounds the per_size echo so
// responses don't carry a tail of zeros out to the workspace bound.
std::size_t LastNonZeroSize(const std::vector<BigCount>& per_size) {
  std::size_t last = 0;
  for (std::size_t s = 1; s < per_size.size(); ++s)
    if (per_size[s] != BigCount{}) last = s;
  return last;
}

}  // namespace

std::chrono::steady_clock::time_point DeadlineAfter(std::int64_t ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  if (ms >= headroom.count()) return Clock::time_point::max();
  return now + std::chrono::milliseconds(ms);
}

QueryEngine::QueryEngine(const QueryEngineOptions& options)
    : options_(options) {}

ServiceResult QueryEngine::RunQuery(const ServiceQuery& query) {
  return RunBatch({query}).front();
}

void QueryEngine::Preload(const std::string& path) {
  bool cache_hit = false;
  GetOrLoad(path, &cache_hit);
}

std::size_t QueryEngine::CachedArtifacts() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

std::size_t QueryEngine::CachedBytes() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cached_bytes_;
}

std::vector<ServiceResult> QueryEngine::RunBatch(
    const std::vector<ServiceQuery>& queries) {
  TelemetryRegistry* telemetry = options_.telemetry;
  TelemetryRegistry::ScopedSpan batch_span(telemetry, "service.batch");
  if (telemetry != nullptr)
    telemetry->AddCounter("service.queries", queries.size());

  // Dedup: all queries against one artifact are served as one group from
  // (at most) one shared counting run. Groups keep first-appearance order,
  // so the deadline checks walk the batch front to back.
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::string_view, std::size_t> group_of_graph;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [it, inserted] =
        group_of_graph.try_emplace(queries[i].graph, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  std::vector<ServiceResult> results(queries.size());
  for (const std::vector<std::size_t>& members : groups) {
    // The group boundary: everything already past its deadline is
    // answered without loading or counting.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::size_t> live;
    for (std::size_t i : members) {
      const ServiceQuery& q = queries[i];
      ServiceResult& res = results[i];
      res.k = q.k;
      res.all_k = q.all_k;
      if (q.deadline <= now) {
        res.error = "deadline exceeded";
        res.deadline_exceeded = true;
      } else if (q.graph.empty()) {
        res.error = "query has no graph path";
      } else if (q.k < 1) {
        res.error = "k must be >= 1";
      } else if (q.per_vertex && q.all_k) {
        res.error = "per_vertex and all_k are mutually exclusive";
      } else {
        live.push_back(i);
      }
    }
    if (live.empty()) continue;

    bool cache_hit = false;
    std::shared_ptr<Entry> entry;
    try {
      entry = GetOrLoad(queries[live.front()].graph, &cache_hit);
    } catch (const std::exception& e) {
      for (std::size_t i : live) results[i].error = e.what();
      continue;
    }
    for (std::size_t i : live) results[i].artifact_cache_hit = cache_hit;
    ServeGroup(entry, queries, live, &results);
  }

  if (telemetry != nullptr) {
    std::uint64_t errors = 0;
    for (const ServiceResult& r : results)
      if (!r.ok) ++errors;
    if (errors > 0) telemetry->AddCounter("service.errors", errors);
  }
  return results;
}

void QueryEngine::ServeGroup(const std::shared_ptr<Entry>& entry,
                             const std::vector<ServiceQuery>& queries,
                             const std::vector<std::size_t>& indices,
                             std::vector<ServiceResult>* results) {
  CHECK(entry != nullptr);
  CHECK(results != nullptr);
  TelemetryRegistry* telemetry = options_.telemetry;
  Timer group_timer;
  std::lock_guard<std::mutex> lock(entry->count_mutex);
  for (std::size_t i : indices) DCHECK_LT(i, results->size());

  // Coverage demanded by the plain-k and all-k queries of this group.
  bool need_all_k = false;
  std::uint32_t need_k = 0;
  for (std::size_t i : indices) {
    const ServiceQuery& q = queries[i];
    if (q.per_vertex) continue;
    if (q.all_k)
      need_all_k = true;
    else
      need_k = std::max(need_k, q.k);
  }

  const std::uint32_t need = need_all_k ? Entry::kAllSizes : need_k;
  const bool run_needed = need > entry->exact_up_to;
  if (run_needed) {
    // One run answers every pending k-query on this graph: kAllUpToK at
    // the batch's largest k, upgraded to kAllK when an all-k query is
    // pending (kAllK subsumes every future k as well).
    CountOptions copts;
    copts.k = std::max(need_k, 1u);
    copts.mode = need_all_k ? CountMode::kAllK : CountMode::kAllUpToK;
    copts.telemetry = telemetry;
    TelemetryRegistry::ScopedSpan count_span(telemetry, "service.count");
    const CountResult counted = CountCliques(entry->artifact.dag, copts);
    entry->per_size = counted.per_size;
    entry->exact_up_to = need;
    if (telemetry != nullptr)
      telemetry->AddCounter("service.count_runs", 1);
  }

  // Per-vertex queries need kSingleK per-vertex runs; memoized per k.
  std::vector<std::uint32_t> fresh_per_vertex_ks;
  for (std::size_t i : indices) {
    const ServiceQuery& q = queries[i];
    if (!q.per_vertex || entry->per_vertex_by_k.count(q.k) != 0) continue;
    CountOptions copts;
    copts.k = q.k;
    copts.mode = CountMode::kSingleK;
    copts.per_vertex = true;
    copts.telemetry = telemetry;
    TelemetryRegistry::ScopedSpan count_span(telemetry, "service.count");
    CountResult counted = CountCliques(entry->artifact.dag, copts);
    entry->per_vertex_by_k[q.k] = {counted.total,
                                   std::move(counted.per_vertex)};
    fresh_per_vertex_ks.push_back(q.k);
    if (telemetry != nullptr)
      telemetry->AddCounter("service.per_vertex_runs", 1);
  }

  std::uint64_t memo_hits = 0;
  for (std::size_t i : indices) {
    const ServiceQuery& q = queries[i];
    ServiceResult& res = (*results)[i];
    res.ok = true;
    if (q.per_vertex) {
      const Entry::PerVertexMemo& memo = entry->per_vertex_by_k[q.k];
      res.top_vertices =
          RankVerticesByCount(memo.counts, std::max<std::uint32_t>(q.top, 1));
      res.total = memo.total;
      res.memo_hit = std::find(fresh_per_vertex_ks.begin(),
                               fresh_per_vertex_ks.end(),
                               q.k) == fresh_per_vertex_ks.end();
    } else {
      res.total = q.k < entry->per_size.size() ? entry->per_size[q.k]
                                               : BigCount{};
      if (q.all_k) {
        const std::size_t last = LastNonZeroSize(entry->per_size);
        res.per_size.assign(entry->per_size.begin(),
                            entry->per_size.begin() + last + 1);
      }
      res.memo_hit = !run_needed;
    }
    if (res.memo_hit) ++memo_hits;
    res.seconds = group_timer.Seconds();
  }
  if (telemetry != nullptr && memo_hits > 0)
    telemetry->AddCounter("service.memo_hits", memo_hits);
}

std::shared_ptr<QueryEngine::Entry> QueryEngine::GetOrLoad(
    const std::string& path, bool* cache_hit) {
  CHECK(cache_hit != nullptr);
  TelemetryRegistry* telemetry = options_.telemetry;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_.find(path);
    if (it != cache_.end()) {
      it->second->last_used = ++use_clock_;
      *cache_hit = true;
      if (telemetry != nullptr)
        telemetry->AddCounter("service.cache_hits", 1);
      return it->second;
    }
  }
  // Load outside the cache lock: artifact I/O + validation is the slow
  // part, and other graphs' batches must not stall behind it.
  auto entry = std::make_shared<Entry>();
  entry->artifact = ReadArtifact(path);
  entry->bytes = entry->artifact.HeapBytes();

  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(path);
  if (it != cache_.end()) {
    // Another thread loaded it while we did; keep the resident copy.
    it->second->last_used = ++use_clock_;
    *cache_hit = true;
    if (telemetry != nullptr)
      telemetry->AddCounter("service.cache_hits", 1);
    return it->second;
  }
  entry->last_used = ++use_clock_;
  cache_[path] = entry;
  cached_bytes_ += entry->bytes;
  *cache_hit = false;
  if (telemetry != nullptr)
    telemetry->AddCounter("service.cache_misses", 1);
  EvictOverBudget();
  if (telemetry != nullptr)
    telemetry->SetGauge("service.cache_bytes",
                        static_cast<double>(cached_bytes_));
  return entry;
}

void QueryEngine::EvictOverBudget() {
  std::uint64_t evicted = 0;
  // Least-recently-used first; the newest entry always survives, so a
  // single artifact larger than the whole budget still serves.
  while (cached_bytes_ > options_.cache_byte_budget && cache_.size() > 1) {
    auto victim = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it)
      if (it->second->last_used < victim->second->last_used) victim = it;
    // Byte accounting must never go negative: every resident entry's bytes
    // were added exactly once in GetOrLoad.
    CHECK_GE(cached_bytes_, victim->second->bytes)
        << "QueryEngine: cache byte accounting underflow evicting "
        << victim->first;
    cached_bytes_ -= victim->second->bytes;
    cache_.erase(victim);
    ++evicted;
  }
  if (options_.telemetry != nullptr && evicted > 0)
    options_.telemetry->AddCounter("service.evictions", evicted);
}

}  // namespace pivotscale
