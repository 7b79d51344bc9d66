// Newline-delimited JSON request/response protocol for pivotscale_served
// (stdin and TCP modes alike).
//
// One request per line, one response per line, positionally ordered and
// correlated by a required caller-chosen "id". Requests:
//   {"id": 1, "graph": "web.psx", "k": 8}
//   {"id": 2, "graph": "web.psx", "k": 6, "per_vertex": true, "top": 10}
//   {"id": 3, "graph": "web.psx", "all_k": true, "deadline_ms": 250}
// Accepted keys: id (number >= 0, required), graph (string, required),
// k (number >= 1), all_k (bool), per_vertex (bool), top (number >= 1),
// deadline_ms (number >= 0 — a soft per-request deadline, relative to
// the moment the line is parsed; the query engine enforces it at
// batch-group boundaries). Integers beyond 2^53 in magnitude are out of
// range, and a deadline past what the steady clock can hold means none.
// Unknown keys are rejected so a typo like "per_vertx" fails loudly
// instead of silently serving the default.
//
// Responses (counts are decimal strings — they are 128-bit):
//   {"id":1,"ok":true,"k":8,"count":"6352","cache_hit":true,
//    "memo_hit":false,"seconds":0.0021}
//   ... plus "per_size":[{"size":3,"count":"..."},...] for all_k and
//   "top_vertices":[{"vertex":17,"count":"..."},...] for per_vertex.
// Failures: {"id":4,"ok":false,"error":"..."}.
#ifndef PIVOTSCALE_SERVICE_PROTOCOL_H_
#define PIVOTSCALE_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "service/query_engine.h"

namespace pivotscale {

// One request line of a batch: the correlation id and the query, or the
// error that is its whole response when the line did not parse (then the
// id is -1). Unparsed lines ride along so a response block keeps request
// order.
struct ProtocolRequest {
  std::int64_t id = -1;
  std::string error;  // non-empty when the line did not parse
  ServiceQuery query;
};

// Parses one NDJSON request line; the query's deadline is `deadline_ms`
// from now. Throws std::runtime_error on malformed JSON, a
// missing/negative "id", a missing/empty "graph", out-of-range values, or
// unknown keys.
ProtocolRequest ParseRequest(const std::string& line);

// Serializes one response line (no trailing newline).
std::string SerializeResponse(std::int64_t id, const ServiceResult& result);

// Serializes a failure line for a request that never reached the engine
// (e.g. a parse error).
std::string SerializeError(std::int64_t id, const std::string& message);

}  // namespace pivotscale

#endif  // PIVOTSCALE_SERVICE_PROTOCOL_H_
