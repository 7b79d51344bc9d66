// Preprocessed graph store: the .psx artifact format.
//
// Every CountKCliques call redoes heuristic -> ordering -> directionalize
// even when the same graph is queried repeatedly. An artifact captures the
// expensive, query-independent part of the pipeline once: the undirected
// CSR graph, the chosen ordering (name + rank permutation), the
// directionalized DAG, and basic stats (degeneracy, max out-degree). The
// query service (src/service/) loads artifacts and goes straight to the
// counting phase.
//
// On-disk layout (all integers little-endian host order; the endianness
// sentinel rejects cross-endian files at load):
//   magic "PSX1"            4 bytes
//   u32 version             (currently 1)
//   u32 endian sentinel     0x01020304 as written by the producer
//   u32 reserved            0
//   u64 num_nodes
//   u64 num_graph_entries   directed entries of the undirected CSR (2|E|)
//   u64 num_dag_entries     entries of the DAG CSR (|E|)
//   u64 degeneracy
//   u64 max_out_degree
//   u32 ordering_name_len
//   u32 reserved            0
//   ordering name bytes     (ordering_name_len)
//   graph offsets           (num_nodes + 1) x u64
//   graph neighbors         num_graph_entries x u32
//   ranks                   num_nodes x u32 (permutation of [0, n))
//   dag offsets             (num_nodes + 1) x u64
//   dag neighbors           num_dag_entries x u32
//   crc64                   u64 over every preceding byte (incl. magic)
// Files are written atomically (temp + rename); the reader verifies magic,
// version, endianness, and checksum before parsing, then re-validates every
// structural invariant (CSR monotonicity, in-range neighbors, a symmetric
// graph, rank permutation, the DAG equal to Directionalize(graph, ranks),
// max_out_degree) so a crafted file cannot reach the counting kernels.
#ifndef PIVOTSCALE_STORE_ARTIFACT_H_
#define PIVOTSCALE_STORE_ARTIFACT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "order/heuristic.h"
#include "order/ordering.h"

namespace pivotscale {

class TelemetryRegistry;

// Everything the counting phase needs, preprocessed and ready to serve.
struct GraphArtifact {
  Graph graph;                 // undirected input CSR
  Graph dag;                   // Directionalize(graph, ranks)
  std::string ordering_name;   // e.g. "approx-core(eps=-0.5)"
  std::vector<NodeId> ranks;   // the ordering's rank permutation
  EdgeId degeneracy = 0;       // exact degeneracy of `graph`
  EdgeId max_out_degree = 0;   // of `dag` (ordering quality)

  // Heap bytes held by the CSR arrays and the rank permutation — the cache
  // accounting unit of the query service.
  std::size_t HeapBytes() const;
};

struct ArtifactBuildOptions {
  // Heuristic thresholds used when no ordering is forced (Section III-E).
  HeuristicConfig heuristic;
  // When set, skip the heuristic and use exactly this ordering.
  std::optional<OrderingSpec> forced_ordering;
  // Exact degeneracy costs one sequential O(V + E) peel; skip it for huge
  // graphs where only the serving path matters (stored as 0).
  bool compute_degeneracy = true;
  // When non-null, records "store.heuristic" / "store.ordering" /
  // "store.directionalize" / "store.degeneracy" spans plus the stage
  // telemetry each phase already emits.
  TelemetryRegistry* telemetry = nullptr;
};

// Runs the query-independent pipeline prefix (PrepareDag,
// pivot/pivotscale.h: heuristic, ordering, directionalize) plus the stats
// on an undirected simple graph (store/build_artifact.cc).
GraphArtifact BuildArtifact(const Graph& g,
                            const ArtifactBuildOptions& options = {});

// Serializes to `path` atomically (temp file + rename).
void WriteArtifact(const std::string& path, const GraphArtifact& artifact);

// Loads and fully validates a .psx file. Throws std::runtime_error naming
// the failure: bad magic, unsupported version, endianness mismatch,
// checksum mismatch, truncation, or any structural invariant violation.
GraphArtifact ReadArtifact(const std::string& path);

// The current writer version (reader accepts exactly this).
inline constexpr std::uint32_t kArtifactVersion = 1;

}  // namespace pivotscale

#endif  // PIVOTSCALE_STORE_ARTIFACT_H_
