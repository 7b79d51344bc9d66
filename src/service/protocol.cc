#include "service/protocol.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/json_writer.h"

namespace pivotscale {

namespace {

// Integral-number extraction: doubles are exact up to 2^53, far beyond
// any valid id/k/top, and a larger magnitude (up to infinity) is rejected
// before the cast, which would be undefined out of int64 range.
std::int64_t RequireInt(const JsonValue& v, const char* key) {
  if (!v.IsNumber() || v.number != std::floor(v.number))
    throw std::runtime_error(std::string("request key \"") + key +
                             "\" must be an integer");
  if (std::fabs(v.number) > 0x1p53)
    throw std::runtime_error(std::string("request key \"") + key +
                             "\" out of range");
  return static_cast<std::int64_t>(v.number);
}

bool RequireBool(const JsonValue& v, const char* key) {
  if (v.type != JsonValue::Type::kBool)
    throw std::runtime_error(std::string("request key \"") + key +
                             "\" must be a boolean");
  return v.bool_value;
}

}  // namespace

ProtocolRequest ParseRequest(const std::string& line) {
  const JsonValue doc = ParseJson(line);
  if (!doc.IsObject())
    throw std::runtime_error("request must be a JSON object");

  ProtocolRequest req;
  bool has_id = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "id") {
      req.id = RequireInt(value, "id");
      if (req.id < 0)
        throw std::runtime_error("request key \"id\" must be >= 0");
      has_id = true;
    } else if (key == "deadline_ms") {
      const std::int64_t ms = RequireInt(value, "deadline_ms");
      if (ms < 0)
        throw std::runtime_error(
            "request key \"deadline_ms\" must be >= 0");
      req.query.deadline = DeadlineAfter(ms);
    } else if (key == "graph") {
      if (!value.IsString())
        throw std::runtime_error("request key \"graph\" must be a string");
      req.query.graph = value.string_value;
    } else if (key == "k") {
      const std::int64_t k = RequireInt(value, "k");
      if (k < 1 || k > std::numeric_limits<std::uint32_t>::max())
        throw std::runtime_error("request key \"k\" out of range");
      req.query.k = static_cast<std::uint32_t>(k);
    } else if (key == "all_k") {
      req.query.all_k = RequireBool(value, "all_k");
    } else if (key == "per_vertex") {
      req.query.per_vertex = RequireBool(value, "per_vertex");
    } else if (key == "top") {
      const std::int64_t top = RequireInt(value, "top");
      if (top < 1 || top > std::numeric_limits<std::uint32_t>::max())
        throw std::runtime_error("request key \"top\" out of range");
      req.query.top = static_cast<std::uint32_t>(top);
    } else {
      throw std::runtime_error("unknown request key \"" + key + "\"");
    }
  }
  if (!has_id)
    throw std::runtime_error(
        "request needs a non-negative \"id\" for response correlation");
  if (req.query.graph.empty())
    throw std::runtime_error(
        "request needs a non-empty \"graph\" artifact path");
  return req;
}

std::string SerializeResponse(std::int64_t id,
                              const ServiceResult& result) {
  if (!result.ok) return SerializeError(id, result.error);
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.Value(id);
  w.Key("ok");
  w.Value(true);
  w.Key("k");
  w.Value(static_cast<std::uint64_t>(result.k));
  w.Key("count");
  w.Value(result.total.ToString());
  if (result.all_k) {
    w.Key("per_size");
    w.BeginArray();
    for (std::size_t s = 1; s < result.per_size.size(); ++s) {
      if (result.per_size[s] == BigCount{}) continue;
      w.BeginObject();
      w.Key("size");
      w.Value(static_cast<std::uint64_t>(s));
      w.Key("count");
      w.Value(result.per_size[s].ToString());
      w.EndObject();
    }
    w.EndArray();
  }
  if (!result.top_vertices.empty()) {
    w.Key("top_vertices");
    w.BeginArray();
    for (const VertexCount& vc : result.top_vertices) {
      w.BeginObject();
      w.Key("vertex");
      w.Value(static_cast<std::uint64_t>(vc.vertex));
      w.Key("count");
      w.Value(vc.count.ToString());
      w.EndObject();
    }
    w.EndArray();
  }
  w.Key("cache_hit");
  w.Value(result.artifact_cache_hit);
  w.Key("memo_hit");
  w.Value(result.memo_hit);
  w.Key("seconds");
  w.Value(result.seconds);
  w.EndObject();
  return w.str();
}

std::string SerializeError(std::int64_t id, const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.Value(id);
  w.Key("ok");
  w.Value(false);
  w.Key("error");
  w.Value(message);
  w.EndObject();
  return w.str();
}

}  // namespace pivotscale
