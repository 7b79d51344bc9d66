#include "approx/approx_count.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exec/executor.h"
#include "graph/builder.h"
#include "graph/dag.h"
#include "order/degree_order.h"
#include "pivot/count.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_remap.h"
#include "util/rng.h"
#include "util/timer.h"

namespace pivotscale {

namespace {

// Out-degree strata are powers of two, the last one open-ended.
constexpr int kStrata = 24;
// At least this many samples per non-empty stratum.
constexpr std::uint64_t kMinSamplesPerStratum = 8;

int StratumOf(EdgeId out_degree) {
  int s = 0;
  EdgeId d = out_degree;
  while (d > 0 && s < kStrata - 1) {
    d >>= 1;
    ++s;
  }
  return s;
}

}  // namespace

ApproxCountResult ApproxCountKCliques(const Graph& dag, std::uint32_t k,
                                      const ApproxCountConfig& config) {
  if (dag.undirected())
    throw std::invalid_argument(
        "ApproxCountKCliques: expected a directionalized DAG");
  if (config.sample_fraction <= 0 || config.sample_fraction > 1)
    throw std::invalid_argument(
        "ApproxCountKCliques: sample_fraction out of (0, 1]");

  Timer timer;
  const NodeId n = dag.NumNodes();

  // Partition roots into out-degree strata.
  std::vector<std::vector<NodeId>> strata(kStrata);
  for (NodeId v = 0; v < n; ++v)
    strata[StratumOf(dag.Degree(v))].push_back(v);

  // Choose per-stratum sample sets (partial Fisher-Yates prefix).
  Rng rng(config.seed);
  struct Sample {
    NodeId root;
    int stratum;
  };
  std::vector<Sample> samples;
  std::vector<std::uint64_t> stratum_size(kStrata, 0);
  std::vector<std::uint64_t> stratum_samples(kStrata, 0);
  for (int s = 0; s < kStrata; ++s) {
    auto& roots = strata[s];
    stratum_size[s] = roots.size();
    if (roots.empty()) continue;
    std::uint64_t m = static_cast<std::uint64_t>(
        std::ceil(config.sample_fraction * static_cast<double>(roots.size())));
    m = std::max(m, kMinSamplesPerStratum);
    m = std::min<std::uint64_t>(m, roots.size());
    stratum_samples[s] = m;
    for (std::uint64_t i = 0; i < m; ++i) {
      const std::uint64_t j = i + rng.Below(roots.size() - i);
      std::swap(roots[i], roots[j]);
      samples.push_back({roots[i], s});
    }
  }

  // Exact per-root counts for the sampled roots.
  const std::uint32_t bound = static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);
  using Counter = PivotCounter<RemapSubgraph, NoStats, SingleKPolicy>;
  std::vector<double> counts(samples.size(), 0.0);
  ExecOptions exec_options;
  exec_options.grain = 16;
  exec_options.cost = [&](std::size_t i) {
    const auto d =
        static_cast<double>(dag.Degree(samples[i].root));
    return (d + 1) * (d + 1);
  };
  ParallelForWorkers(
      samples.size(), exec_options,
      [&](int) {
        return Counter(dag, k, bound, &binom);
      },
      [&](Counter& counter, std::size_t i) {
        // Per-root delta of the accumulating counter; stored as double
        // (precision loss starts beyond 2^53 per root, where the
        // estimator's relative error is negligible anyway).
        const uint128 before = counter.total().value();
        counter.ProcessRoot(samples[i].root);
        counts[i] = ToDouble(counter.total().value() - before);
      },
      [](Counter&) {});

  // Horvitz-Thompson per stratum: estimate_s = N_s * mean_s; variance via
  // within-stratum sample variance with finite-population correction.
  ApproxCountResult result;
  result.roots_total = n;
  double estimate = 0, variance = 0;
  std::vector<double> stratum_sum(kStrata, 0.0);
  std::vector<double> stratum_sum_sq(kStrata, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    stratum_sum[samples[i].stratum] += counts[i];
    stratum_sum_sq[samples[i].stratum] += counts[i] * counts[i];
  }
  for (int s = 0; s < kStrata; ++s) {
    const double m = static_cast<double>(stratum_samples[s]);
    const double N = static_cast<double>(stratum_size[s]);
    if (m == 0) continue;
    const double mean = stratum_sum[s] / m;
    estimate += N * mean;
    if (m > 1 && m < N) {
      const double sample_var =
          (stratum_sum_sq[s] - m * mean * mean) / (m - 1);
      variance += N * N * (sample_var / m) * (1.0 - m / N);
    }
  }
  result.roots_sampled = samples.size();
  result.estimate_double = estimate;
  result.estimate = BigCount{static_cast<uint128>(std::max(0.0, estimate))};
  result.relative_std_error =
      estimate > 0 ? std::sqrt(std::max(0.0, variance)) / estimate : 0;
  result.seconds = timer.Seconds();
  return result;
}

ApproxCountResult ColorSamplingCount(const Graph& g, std::uint32_t k,
                                     const ColorSamplingConfig& config) {
  if (g.NumNodes() > 0 && !g.undirected())
    throw std::invalid_argument(
        "ColorSamplingCount: expected an undirected graph");
  if (config.colors < 2)
    throw std::invalid_argument("ColorSamplingCount: colors must be >= 2");
  if (config.repeats < 1)
    throw std::invalid_argument("ColorSamplingCount: repeats must be >= 1");
  if (k < 2)
    throw std::invalid_argument("ColorSamplingCount: k must be >= 2");

  Timer timer;
  const NodeId n = g.NumNodes();
  // Scale factor colors^(k-1), saturating.
  uint128 scale = 1;
  for (std::uint32_t i = 0; i + 1 < k; ++i)
    scale = SatMul(scale, config.colors);

  std::vector<double> estimates;
  Rng rng(config.seed);
  std::vector<std::uint8_t> color(n);
  for (int rep = 0; rep < config.repeats; ++rep) {
    for (NodeId v = 0; v < n; ++v)
      color[v] = static_cast<std::uint8_t>(rng.Below(config.colors));
    EdgeList kept;
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v : g.Neighbors(u))
        if (u < v && color[u] == color[v]) kept.emplace_back(u, v);
    const Graph sparse = BuildGraph(std::move(kept), n);
    const Graph dag =
        Directionalize(sparse, DegreeOrdering(sparse).ranks);
    CountOptions options;
    options.k = k;
    const BigCount mono = CountCliques(dag, options).total;
    estimates.push_back(ToDouble(mono.value()) * ToDouble(scale));
  }

  ApproxCountResult result;
  result.roots_total = n;
  result.roots_sampled =
      static_cast<std::uint64_t>(config.repeats);  // colorings, here
  double mean = 0;
  for (double e : estimates) mean += e;
  mean /= static_cast<double>(estimates.size());
  double var = 0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  if (estimates.size() > 1)
    var /= static_cast<double>(estimates.size() - 1);
  result.estimate_double = mean;
  result.estimate = BigCount{static_cast<uint128>(std::max(0.0, mean))};
  result.relative_std_error =
      mean > 0
          ? std::sqrt(var / static_cast<double>(estimates.size())) / mean
          : 0;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace pivotscale
