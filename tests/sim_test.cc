// Tests for the simulation substrate: scheduler/scaling simulation, cache
// simulation, and the memory model.
#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "sim/cache_sim.h"
#include "sim/mem_model.h"
#include "sim/scaling_sim.h"
#include "sim/work_trace.h"
#include "test_helpers.h"

namespace pivotscale {
namespace {

using testing_helpers::MakeDag;

WorkTrace UniformTrace(std::size_t n, std::uint64_t nanos_each) {
  WorkTrace trace;
  trace.roots.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    trace.roots[i] = {static_cast<NodeId>(i), nanos_each, nanos_each};
  return trace;
}

// ---------------------------------------------------------------- work trace

TEST(WorkTrace, Totals) {
  WorkTrace trace;
  trace.roots = {{0, 10, 1}, {1, 20, 2}, {2, 5, 3}};
  EXPECT_EQ(trace.TotalNanos(), 35u);
  EXPECT_EQ(trace.TotalEdgeOps(), 6u);
  EXPECT_EQ(trace.MaxNanos(), 20u);
}

// ---------------------------------------------------------------- scaling sim

TEST(ScalingSim, OneThreadMakespanIsSerialTime) {
  const WorkTrace trace = UniformTrace(1000, 1000);
  ScalingSimConfig config;
  config.num_threads = 1;
  const ScalingSimResult result = SimulateScaling(trace, config);
  // Chunked accumulation order differs from the serial sum; allow FP slack.
  EXPECT_NEAR(result.makespan_seconds, result.serial_seconds,
              result.serial_seconds * 1e-9);
}

TEST(ScalingSim, UniformWorkScalesLinearly) {
  const WorkTrace trace = UniformTrace(64000, 1000);
  for (int threads : {2, 4, 8, 16, 32, 64}) {
    ScalingSimConfig config;
    config.num_threads = threads;
    const double speedup = SimulateSpeedup(trace, config);
    EXPECT_NEAR(speedup, threads, threads * 0.05) << threads;
  }
}

TEST(ScalingSim, MakespanBounds) {
  // Greedy scheduling bound: max(max_task, total/T) <= makespan
  // <= total/T + chunk_max.
  WorkTrace trace = UniformTrace(5000, 500);
  trace.roots[17].nanos = 4000000;  // one heavy root
  trace.roots[17].edge_ops = 4000000;
  ScalingSimConfig config;
  config.num_threads = 8;
  const ScalingSimResult result = SimulateScaling(trace, config);
  const double total = result.serial_seconds;
  // The deterministic work model rescales per-root seconds to unit shares;
  // derive the heavy task's modeled seconds the same way.
  const double heavy_units = 4000000 + config.per_root_overhead_units;
  const double total_units =
      4999.0 * (500 + config.per_root_overhead_units) + heavy_units;
  const double max_task = total * heavy_units / total_units;
  EXPECT_GE(result.makespan_seconds,
            std::max(max_task, total / 8) - 1e-12);
  EXPECT_LE(result.makespan_seconds, total / 8 + max_task * 2 + 1e-12);
}

TEST(ScalingSim, HeavyRootLimitsSpeedup) {
  // One root holding half the work bounds speedup at ~2 regardless of T.
  WorkTrace trace = UniformTrace(1000, 1000);
  trace.roots[0].nanos = 999000;
  trace.roots[0].edge_ops = 999000;
  ScalingSimConfig config;
  config.num_threads = 64;
  config.chunk_size = 1;
  EXPECT_LT(SimulateSpeedup(trace, config), 2.3);
}

TEST(ScalingSim, StaticScheduleWorseOnSkewedPrefix) {
  // All heavy roots at the front of the id range: a static block partition
  // assigns them to one thread; dynamic spreads them.
  WorkTrace trace = UniformTrace(6400, 10);
  for (std::size_t i = 0; i < 100; ++i) {
    trace.roots[i].nanos = 50000;
    trace.roots[i].edge_ops = 50000;
  }
  ScalingSimConfig dynamic_config;
  dynamic_config.num_threads = 16;
  dynamic_config.chunk_size = 4;
  ScalingSimConfig static_config = dynamic_config;
  static_config.static_schedule = true;
  EXPECT_GT(SimulateSpeedup(trace, dynamic_config),
            SimulateSpeedup(trace, static_config) * 1.5);
}

TEST(ScalingSim, MemoryFloorCapsDenseScaling) {
  // Aggregate footprint >> cache: speedup plateaus near
  // 1 / memory_time_fraction; compact footprint keeps scaling.
  const WorkTrace trace = UniformTrace(64000, 1000);
  ScalingSimConfig big;
  big.num_threads = 64;
  big.per_thread_footprint_bytes = std::size_t{64} << 20;  // 4 GiB aggregate
  big.cache_capacity_bytes = std::size_t{256} << 20;
  big.memory_time_fraction = 0.05;
  const double capped = SimulateSpeedup(trace, big);
  EXPECT_LT(capped, 1.0 / 0.05 * 1.3);

  ScalingSimConfig small = big;
  small.per_thread_footprint_bytes = 1 << 20;  // 64 MiB aggregate: fits
  EXPECT_GT(SimulateSpeedup(trace, small), capped * 1.5);
}

TEST(ScalingSim, BusyCovLowOnUniformWork) {
  const WorkTrace trace = UniformTrace(64000, 1000);
  ScalingSimConfig config;
  config.num_threads = 64;
  const ScalingSimResult result = SimulateScaling(trace, config);
  EXPECT_LT(result.busy_cov, 0.05);
}

TEST(ScalingSim, ValidatesArguments) {
  const WorkTrace trace = UniformTrace(10, 1);
  ScalingSimConfig config;
  config.num_threads = 0;
  EXPECT_THROW(SimulateScaling(trace, config), std::invalid_argument);
  config.num_threads = 2;
  config.chunk_size = 0;
  EXPECT_THROW(SimulateScaling(trace, config), std::invalid_argument);
}

TEST(ScalingSim, RealTraceFromCounter) {
  // End-to-end: capture a trace from the actual counter and simulate.
  EdgeList edges = Rmat(10, 6.0, 3);
  PlantCliques(&edges, 1024, 4, 6, 12, 4);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions options;
  options.k = 6;
  WorkTrace trace;
  CountCliquesOn(dag, options, SubgraphKind::kBitmap, &trace);
  ScalingSimConfig config;
  config.num_threads = 16;
  const double speedup = SimulateSpeedup(trace, config);
  EXPECT_GT(speedup, 1.0);
  EXPECT_LE(speedup, 16.05);
}

// ---------------------------------------------------------------- cache sim

TEST(CacheSim, ColdMissesThenHits) {
  CacheSim cache(1024, 4, 64);
  cache.Access(0);
  cache.Access(0);
  cache.Access(4);  // same line
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(CacheSim, LruEviction) {
  // Direct-mapped 2-line cache, 64 B lines: lines alternate sets.
  CacheSim cache(128, 1, 64);
  cache.Access(0);     // set 0 miss
  cache.Access(128);   // set 0 miss, evicts line 0
  cache.Access(0);     // set 0 miss again
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CacheSim, AssociativityHoldsWorkingSet) {
  // 4-way set: 4 conflicting lines all fit; a 5th thrashes.
  CacheSim cache(4 * 64, 4, 64);  // 1 set, 4 ways
  for (int rep = 0; rep < 3; ++rep)
    for (std::uint64_t line = 0; line < 4; ++line)
      cache.Access(line * 64);
  EXPECT_EQ(cache.misses(), 4u);  // cold only
  EXPECT_EQ(cache.hits(), 8u);
}

TEST(CacheSim, ThrashingBeyondAssociativity) {
  CacheSim cache(4 * 64, 4, 64);  // 1 set, 4 ways
  for (int rep = 0; rep < 4; ++rep)
    for (std::uint64_t line = 0; line < 5; ++line)
      cache.Access(line * 64);
  // Cyclic access of 5 lines through a 4-way LRU set misses always.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 20u);
}

TEST(CacheSim, SmallFootprintFitsLargeSpreads) {
  // The Section VI-D effect in miniature: a loop over 1000 distinct lines
  // fits a 1 MiB cache (high hit rate) but a loop over 100k lines does not.
  CacheSim cache(1 << 20, 8, 64);
  for (int rep = 0; rep < 4; ++rep)
    for (std::uint64_t i = 0; i < 1000; ++i) cache.Access(i * 64);
  const double compact_miss_rate = cache.MissRate();
  cache.Reset();
  for (int rep = 0; rep < 4; ++rep)
    for (std::uint64_t i = 0; i < 100000; ++i) cache.Access(i * 64);
  EXPECT_LT(compact_miss_rate, 0.3);
  EXPECT_GT(cache.MissRate(), 0.9);
}

TEST(CacheSim, ResetClearsState) {
  CacheSim cache(1024, 2, 64);
  cache.Access(0);
  cache.Reset();
  EXPECT_EQ(cache.accesses(), 0u);
  cache.Access(0);
  EXPECT_EQ(cache.misses(), 1u);  // cold again after reset
}

TEST(CacheSim, ValidatesGeometry) {
  EXPECT_THROW(CacheSim(1000, 4, 64), std::invalid_argument);  // not pow2
  EXPECT_THROW(CacheSim(0, 4, 64), std::invalid_argument);
  EXPECT_THROW(CacheSim(1024, 0, 64), std::invalid_argument);
}

// ---------------------------------------------------------------- mem model

TEST(MemModel, DenseScalesWithV) {
  const auto small = EstimateStructureBytes(SubgraphKind::kDense, 1000, 50);
  const auto large =
      EstimateStructureBytes(SubgraphKind::kDense, 1000000, 50);
  EXPECT_GT(large, small * 100);
}

TEST(MemModel, CompactStructuresIndependentOfV) {
  const auto remap_small =
      EstimateStructureBytes(SubgraphKind::kRemap, 1000, 50);
  const auto remap_large =
      EstimateStructureBytes(SubgraphKind::kRemap, 1000000, 50);
  EXPECT_EQ(remap_small, remap_large);
}

TEST(MemModel, DenseDominatesOnLargeGraphs) {
  for (auto kind : {SubgraphKind::kSparse, SubgraphKind::kRemap}) {
    EXPECT_GT(EstimateStructureBytes(SubgraphKind::kDense, 2000000, 100),
              10 * EstimateStructureBytes(kind, 2000000, 100));
  }
}

TEST(MemModel, AggregatePrefersMeasured) {
  EXPECT_EQ(AggregateWorkspaceBytes(SubgraphKind::kRemap, 1000, 10, 8,
                                    /*measured_per_thread=*/500),
            4000u);
  EXPECT_EQ(AggregateWorkspaceBytes(SubgraphKind::kRemap, 1000, 10, 8, 0),
            8 * EstimateStructureBytes(SubgraphKind::kRemap, 1000, 10));
}

}  // namespace
}  // namespace pivotscale
