#include "util/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.h"
#include "util/json_writer.h"
#include "util/stats.h"

namespace pivotscale {

void TelemetryRegistry::AddCounter(const std::string& name,
                                   std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  data_.counters[name] += delta;
}

void TelemetryRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  data_.gauges[name] = value;
}

void TelemetryRegistry::RecordSpan(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  TelemetrySpan& span = data_.spans[name];
  ++span.count;
  span.seconds += seconds;
}

void TelemetryRegistry::SetSeries(const std::string& name,
                                  std::vector<double> values) {
  std::lock_guard<std::mutex> lock(mutex_);
  data_.series[name] = std::move(values);
}

std::uint64_t TelemetryRegistry::Counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.counters.find(name);
  return it == data_.counters.end() ? 0 : it->second;
}

double TelemetryRegistry::Gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.gauges.find(name);
  return it == data_.gauges.end() ? 0 : it->second;
}

double TelemetryRegistry::SpanSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.spans.find(name);
  return it == data_.spans.end() ? 0 : it->second.seconds;
}

std::vector<double> TelemetryRegistry::Series(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.series.find(name);
  return it == data_.series.end() ? std::vector<double>{} : it->second;
}

bool TelemetryRegistry::HasSpan(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_.spans.count(name) != 0;
}

TelemetrySnapshot TelemetryRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

void TelemetryRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  data_ = TelemetrySnapshot{};
}

std::string RunReportJson(const TelemetryRegistry& registry) {
  const TelemetrySnapshot snap = registry.Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.Value("pivotscale.run_report");
  w.Key("version");
  w.Value(std::uint64_t{2});

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : snap.counters) {
    w.Key(name);
    w.Value(value);
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, value] : snap.gauges) {
    w.Key(name);
    w.Value(value);
  }
  w.EndObject();

  w.Key("spans");
  w.BeginObject();
  for (const auto& [name, span] : snap.spans) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Value(span.count);
    w.Key("seconds");
    w.Value(span.seconds);
    w.EndObject();
  }
  w.EndObject();

  w.Key("series");
  w.BeginObject();
  for (const auto& [name, values] : snap.series) {
    w.Key(name);
    w.BeginArray();
    for (const double v : values) w.Value(v);
    w.EndArray();
  }
  w.EndObject();

  w.EndObject();
  return w.str();
}

std::string LoadImbalanceSummary(const TelemetryRegistry& registry) {
  const TelemetrySnapshot snap = registry.Snapshot();
  constexpr const char kSuffix[] = "busy_seconds";
  constexpr int kBarWidth = 40;

  std::ostringstream os;
  for (const auto& [name, values] : snap.series) {
    if (name.size() < sizeof(kSuffix) - 1 ||
        name.compare(name.size() - (sizeof(kSuffix) - 1),
                     sizeof(kSuffix) - 1, kSuffix) != 0)
      continue;
    if (values.empty()) continue;

    const double max = *std::max_element(values.begin(), values.end());
    const double min = *std::min_element(values.begin(), values.end());
    // Series length == realized team (the executor sizes them inside the
    // region), so the readout never shows phantom zero-slots.
    os << name << " (" << values.size() << " threads)\n";
    for (std::size_t t = 0; t < values.size(); ++t) {
      const int bar =
          max > 0 ? static_cast<int>(values[t] / max * kBarWidth + 0.5) : 0;
      char line[96];
      std::snprintf(line, sizeof(line), "  t%02zu %9.4fs |", t, values[t]);
      os << line;
      for (int i = 0; i < bar; ++i) os << '#';
      os << '\n';
    }
    char stats[128];
    std::snprintf(stats, sizeof(stats),
                  "  min %.4fs  max %.4fs  mean %.4fs  CoV %.3f\n", min, max,
                  Mean(values), CoeffOfVariation(values));
    os << stats;
  }
  return os.str();
}

void WriteRunReport(const std::string& path,
                    const TelemetryRegistry& registry) {
  // Temp file + rename: a crashed run never leaves a truncated JSON
  // document that a downstream parser half-accepts.
  WriteFileAtomic(path, RunReportJson(registry) + '\n');
}

}  // namespace pivotscale
