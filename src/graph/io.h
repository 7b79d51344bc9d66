// Graph file I/O.
//
// Two formats:
//  - Text edge lists ("u v" per line, '#' comments), compatible with the
//    SNAP dataset distribution format, so real datasets drop in when
//    available.
//  - A binary ".psg" serialization of the CSR arrays for fast reload of
//    generated suites.
#ifndef PIVOTSCALE_GRAPH_IO_H_
#define PIVOTSCALE_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"

namespace pivotscale {

// Reads a text edge list; lines starting with '#' or '%' are comments.
// Throws std::runtime_error (with the line number) on unreadable files,
// malformed lines, or vertex ids of 2^32 - 1 and above (the vertex count
// must fit a NodeId).
EdgeList ReadEdgeList(const std::string& path);

// Writes one "u v" line per edge.
void WriteEdgeList(const std::string& path, const EdgeList& edges);

// Binary CSR serialization. The format is:
//   magic "PSG1" | u8 undirected | u64 num_nodes | u64 num_entries |
//   offsets[] (u64) | neighbors[] (u32)
void WriteBinaryGraph(const std::string& path, const Graph& g);

// Reads a .psg file, validating the header and the CSR invariants
// (monotone offsets spanning exactly num_entries, all neighbor ids in
// range) so a corrupt or crafted file throws std::runtime_error instead of
// reading out of bounds downstream.
Graph ReadBinaryGraph(const std::string& path);

// Loads a graph from a path, dispatching on extension: ".psg" -> binary,
// anything else -> text edge list built by BuildGraph (symmetrized,
// deduplicated, no self-loops, over max id + 1 vertices).
Graph LoadGraph(const std::string& path);

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_IO_H_
