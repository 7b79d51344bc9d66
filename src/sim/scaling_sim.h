// Parallel-scaling simulator (the Figure 11 substitution).
//
// This reproduction runs on a single core, so multi-thread speedups cannot
// be measured directly. Instead, the real counter records a per-root work
// trace (sim/work_trace.h) and this simulator replays it under a
// self-scheduling scheduler with T virtual threads:
//
//  * scheduling: dynamic chunked self-scheduling (default; matches the
//    exec layer's shared chunk cursor) or static block partitioning (the
//    naive-parallel model). Each chunk goes to the earliest-available
//    thread; makespan and per-thread busy times fall out.
//  * memory contention: when the aggregate thread-local structure footprint
//    (per_thread_footprint_bytes * T) exceeds the modeled shared cache, a
//    fraction of the work time (memory_time_fraction) stops scaling — it is
//    serialized behind the memory system. This reproduces the dense
//    structure's >=32-thread plateau while compact structures keep scaling.
//
// Validity: the paper itself argues (Section IV) that counting-phase
// scaling is determined by (a) the work distribution across roots — which
// the trace captures exactly — and (b) memory pressure from thread-local
// structures — which the footprint model captures. Absolute wall-clock is
// the only thing requiring real cores.
#ifndef PIVOTSCALE_SIM_SCALING_SIM_H_
#define PIVOTSCALE_SIM_SCALING_SIM_H_

#include <cstdint>
#include <vector>

#include "sim/work_trace.h"

namespace pivotscale {

// How a root's simulated work is derived from its trace record.
enum class WorkModel {
  // Deterministic units: edge_ops + build_ops + a constant per-root
  // overhead, scaled so the trace's total measured time is preserved.
  // Immune to timer granularity and OS-preemption spikes, which on a
  // shared single core routinely charge a multi-millisecond timeslice to
  // a sub-microsecond root and would otherwise fabricate heavy roots.
  kDeterministicUnits,
  // Raw per-root measured nanoseconds (use on dedicated hardware).
  kMeasuredNanos,
};

struct ScalingSimConfig {
  int num_threads = 64;
  WorkModel work_model = WorkModel::kDeterministicUnits;
  // Constant per-root overhead, in edge-op units (scheduling, timers,
  // subgraph reset), for the deterministic model.
  std::uint64_t per_root_overhead_units = 4;
  // Roots per scheduling grant (dynamic mode).
  int chunk_size = 16;
  // true = static block partitioning (naive parallelization model).
  bool static_schedule = false;

  // Memory contention model. footprint = 0 disables it.
  std::size_t per_thread_footprint_bytes = 0;
  std::size_t cache_capacity_bytes = std::size_t{256} << 20;  // paper's LLC
  // Fraction of counting time that is memory-system time once the aggregate
  // footprint fully spills the cache; bounds the attainable speedup at
  // 1 / memory_time_fraction.
  double memory_time_fraction = 0.03;
};

struct ScalingSimResult {
  double makespan_seconds = 0;
  std::vector<double> thread_busy_seconds;
  // Coefficient of variation of per-thread busy time (load balance; the
  // paper measures 0.03 across its suite).
  double busy_cov = 0;
  // makespan(1 thread) / makespan(T threads), computed by the caller via a
  // second run, or use SimulateSpeedup below.
  double serial_seconds = 0;  // sum of all work (the T=1 makespan)
};

// Replays `trace` on the simulated machine.
ScalingSimResult SimulateScaling(const WorkTrace& trace,
                                 const ScalingSimConfig& config);

// Convenience: self-relative speedup at `config.num_threads` versus the
// same configuration at one thread.
double SimulateSpeedup(const WorkTrace& trace,
                       const ScalingSimConfig& config);

}  // namespace pivotscale

#endif  // PIVOTSCALE_SIM_SCALING_SIM_H_
