#include "baselines/enumeration.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include "exec/executor.h"
#include "util/timer.h"

namespace pivotscale {

namespace {

// One thread's enumeration state. `label[u] = depth` marks u as a member of
// the candidate set at that depth (the kclist labeling trick), so building
// the next level's candidates is a filter of the chosen vertex's
// out-neighborhood.
class EnumWorker {
 public:
  EnumWorker(const Graph& dag, std::uint32_t k)
      : dag_(dag), k_(k), label_(dag.NumNodes(), 0), bufs_(k + 1) {}

  // Counts k-cliques rooted at v; returns the count. Checks `deadline` via
  // the caller-provided predicate every few thousand recursive steps.
  template <typename DeadlinePred>
  BigCount ProcessRoot(NodeId v, const DeadlinePred& deadline_hit) {
    if (k_ == 1) return BigCount{1};
    auto& cand = bufs_[2];
    cand.clear();
    for (NodeId u : dag_.Neighbors(v)) {
      cand.push_back(u);
      label_[u] = 2;
    }
    const BigCount total = Recurse(2, deadline_hit);
    for (NodeId u : cand) label_[u] = 0;
    return total;
  }

 private:
  // `depth` = number of chosen vertices + 1; candidates live in
  // bufs_[depth] with label_ == depth.
  template <typename DeadlinePred>
  BigCount Recurse(std::uint32_t depth, const DeadlinePred& deadline_hit) {
    const auto& cand = bufs_[depth];
    if (depth == k_) return BigCount{cand.size()};

    if (++steps_ % 4096 == 0 && deadline_hit()) {
      aborted_ = true;
      return BigCount{};
    }

    BigCount total{};
    auto& next = bufs_[depth + 1];
    for (NodeId u : cand) {
      next.clear();
      for (NodeId w : dag_.Neighbors(u)) {
        if (label_[w] == depth) {
          label_[w] = depth + 1;
          next.push_back(w);
        }
      }
      total += Recurse(depth + 1, deadline_hit);
      for (NodeId w : next) label_[w] = depth;
      if (aborted_) return total;
    }
    return total;
  }

 public:
  bool aborted() const { return aborted_; }

 private:
  const Graph& dag_;
  std::uint32_t k_;
  std::vector<std::uint32_t> label_;
  std::vector<std::vector<NodeId>> bufs_;
  std::uint64_t steps_ = 0;
  bool aborted_ = false;
};

}  // namespace

EnumerationResult CountCliquesEnumeration(const Graph& dag,
                                          const EnumerationOptions& options) {
  if (dag.undirected())
    throw std::invalid_argument(
        "CountCliquesEnumeration: expected a directionalized DAG");
  if (options.k < 1)
    throw std::invalid_argument("CountCliquesEnumeration: k must be >= 1");

  const NodeId n = dag.NumNodes();

  Timer timer;
  std::atomic<bool> timed_out{false};
  const double budget = options.time_budget_seconds;
  auto deadline_hit = [&]() {
    if (budget > 0 && timer.Seconds() > budget) {
      timed_out.store(true, std::memory_order_relaxed);
      return true;
    }
    return timed_out.load(std::memory_order_relaxed);
  };

  // Worker state: the kclist labeling engine plus this worker's partial
  // total, merged serially after the region.
  struct Worker {
    Worker(const Graph& graph, std::uint32_t k) : engine(graph, k) {}
    EnumWorker engine;
    BigCount local{};
  };

  BigCount total{};
  ExecOptions exec_options;
  exec_options.grain = 64;
  exec_options.cost = [&dag](std::size_t v) {
    return static_cast<double>(dag.Degree(static_cast<NodeId>(v)) + 1);
  };
  ParallelForWorkers(
      n, exec_options, [&](int) { return Worker(dag, options.k); },
      [&deadline_hit](Worker& w, std::size_t v) {
        if (!deadline_hit())
          w.local += w.engine.ProcessRoot(static_cast<NodeId>(v),
                                          deadline_hit);
      },
      [&total](Worker& w) { total += w.local; });

  EnumerationResult result;
  result.timed_out = timed_out.load();
  result.total = result.timed_out ? BigCount{} : total;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace pivotscale
