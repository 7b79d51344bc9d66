// Run telemetry: the observability substrate for the counting pipeline.
//
// The paper's evaluation is built on per-phase timing, per-thread load
// balance, and operation counts (Tables 2-6, Figures 6-11). Instead of
// scattering bespoke seconds fields through result structs, every pipeline
// stage records into one TelemetryRegistry:
//   counters  -- accumulating u64 totals (recursion calls, edge ops, ...)
//   gauges    -- last-write doubles (max out-degree, probe ratios, ...)
//   spans     -- per-name phase records: how many, total wall seconds
//   series    -- named per-thread vectors (busy seconds, chunk counts)
// A RunReport serializes the whole registry to one stable JSON document
// (see docs/api_tour.md "Telemetry" for the schema) plus an ASCII
// load-imbalance summary, so every CLI/bench run can emit machine-readable
// telemetry alongside its human-readable table.
//
// Threading: all mutators are mutex-guarded, so concurrent stages may
// record freely; the hot counting loops aggregate thread-locally and dump
// once per thread, so the lock never sits on a per-clique path.
#ifndef PIVOTSCALE_UTIL_TELEMETRY_H_
#define PIVOTSCALE_UTIL_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace pivotscale {

// Every span recorded under one name, folded into one record, so a
// long-running server that records a span per batch holds one record per
// name, not one per call.
struct TelemetrySpan {
  std::uint64_t count = 0;  // spans recorded
  double seconds = 0;       // their total wall seconds
};

// A point-in-time copy of everything a registry holds; the unit RunReport
// serialization works from.
struct TelemetrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, TelemetrySpan> spans;
  std::map<std::string, std::vector<double>> series;
};

class TelemetryRegistry {
 public:
  TelemetryRegistry() = default;
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  // Adds `delta` to the named counter (created at zero).
  void AddCounter(const std::string& name, std::uint64_t delta);

  // Sets the named gauge (last write wins).
  void SetGauge(const std::string& name, double value);

  // Folds one phase span into the record of its name.
  void RecordSpan(const std::string& name, double seconds);

  // Replaces the named series (e.g. one slot per thread).
  void SetSeries(const std::string& name, std::vector<double> values);

  // Point lookups; zero / empty when the name was never recorded.
  std::uint64_t Counter(const std::string& name) const;
  double Gauge(const std::string& name) const;
  // Total seconds recorded under `name` (summed across repeats).
  double SpanSeconds(const std::string& name) const;
  std::vector<double> Series(const std::string& name) const;

  // True if any record of the given kind exists under `name`.
  bool HasSpan(const std::string& name) const;

  TelemetrySnapshot Snapshot() const;

  // Drops every record.
  void Clear();

  // RAII span: records the scope's wall time on destruction.
  //   { TelemetryRegistry::ScopedSpan span(&reg, "ordering"); ... }
  // A null registry makes the span a no-op, so call sites need no guard.
  class ScopedSpan {
   public:
    ScopedSpan(TelemetryRegistry* registry, std::string name)
        : registry_(registry), name_(std::move(name)) {}
    ~ScopedSpan() {
      if (registry_ != nullptr) registry_->RecordSpan(name_, timer_.Seconds());
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

   private:
    TelemetryRegistry* registry_;
    std::string name_;
    Timer timer_;
  };

 private:
  mutable std::mutex mutex_;
  TelemetrySnapshot data_;
};

// Serializes a registry snapshot as one JSON document:
//   {"schema": "pivotscale.run_report", "version": 2,
//    "counters": {...}, "gauges": {...},
//    "spans": {name: {"count": ..., "seconds": ...}, ...},
//    "series": {...}}
// Key order inside counters/gauges/spans/series is lexicographic
// (std::map), so the output is byte-stable for identical registries.
std::string RunReportJson(const TelemetryRegistry& registry);

// ASCII summary of every per-worker busy-time series (names ending in
// "busy_seconds", such as "exec.worker_busy_seconds"): per-thread bars plus
// min/max/mean/CoV, the Section IV load-balance readout. Series are
// sized to the realized team by their writers, so the bars never include
// phantom slots for undelivered threads. Empty string when no such
// series exists.
std::string LoadImbalanceSummary(const TelemetryRegistry& registry);

// Writes RunReportJson(registry) to `path` (plus a trailing newline).
// Throws std::runtime_error on I/O failure.
void WriteRunReport(const std::string& path,
                    const TelemetryRegistry& registry);

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_TELEMETRY_H_
