// Sampling-based approximate k-clique counting.
//
// Section VII surveys approximate counters (Turán-shadow, color-based
// sampling); this module implements a stratified root-sampling estimator
// on top of the exact pivoting kernel: the total count is the sum of
// per-root counts over the DAG, so sampling roots and counting them
// exactly yields an unbiased estimator. Stratifying by out-degree (heavy
// roots are few but carry most of the count) collapses the variance that
// plain uniform sampling would suffer on skewed graphs.
#ifndef PIVOTSCALE_APPROX_APPROX_COUNT_H_
#define PIVOTSCALE_APPROX_APPROX_COUNT_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/uint128.h"

namespace pivotscale {

struct ApproxCountConfig {
  // Fraction of roots counted exactly, in (0, 1]. 1.0 degenerates to the
  // exact count.
  double sample_fraction = 0.05;
  std::uint64_t seed = 1;
};

struct ApproxCountResult {
  // The estimate (rounded to integer; exact within a stratum that was
  // fully sampled).
  BigCount estimate{};
  double estimate_double = 0;
  // Estimated relative standard error from within-stratum sample variance.
  double relative_std_error = 0;
  std::uint64_t roots_sampled = 0;
  std::uint64_t roots_total = 0;
  double seconds = 0;
};

// Estimates the k-clique count of a directionalized DAG.
ApproxCountResult ApproxCountKCliques(const Graph& dag, std::uint32_t k,
                                      const ApproxCountConfig& config = {});

// Color sparsification (the color-based sampling family of Section VII):
// each vertex gets one of `colors` uniform colors; only monochromatic
// edges survive; a k-clique survives with probability colors^-(k-1), so
// the exact count of the sparsified graph times colors^(k-1) is unbiased.
// `repeats` independent colorings are averaged and the sample standard
// error reported.
struct ColorSamplingConfig {
  std::uint32_t colors = 4;
  int repeats = 5;
  std::uint64_t seed = 1;
};

// Takes the *undirected* graph (sparsification changes the DAG).
ApproxCountResult ColorSamplingCount(const Graph& g, std::uint32_t k,
                                     const ColorSamplingConfig& config = {});

}  // namespace pivotscale

#endif  // PIVOTSCALE_APPROX_APPROX_COUNT_H_
