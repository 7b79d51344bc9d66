// Synthetic graph generators.
//
// The evaluation suite cannot ship the SNAP/Konect graphs the paper uses, so
// datasets.h composes these generators into deterministic analogs of each
// input graph (see DESIGN.md, "Environment substitutions"). The generators
// are also the workload source for the property-based tests.
//
// All generators are seeded and deterministic. They return edge lists;
// callers normalize with BuildGraph (symmetrize + dedup + de-loop).
#ifndef PIVOTSCALE_GRAPH_GENERATORS_H_
#define PIVOTSCALE_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/graph.h"

namespace pivotscale {

// --- Random models -------------------------------------------------------

// Erdos-Renyi G(n, p): each unordered pair is an edge independently with
// probability p. O(n^2) sampling; use for n up to a few thousand (tests).
EdgeList ErdosRenyi(NodeId n, double p, std::uint64_t seed);

// G(n, m): exactly m distinct undirected edges sampled uniformly.
EdgeList GnM(NodeId n, EdgeId m, std::uint64_t seed);

// RMAT (Chakrabarti et al.) power-law graph over 2^scale vertices with
// about avg_degree * 2^scale edges and partition probabilities (a, b, c):
// the skewed-degree model used by Graph500 and the GAP benchmark suite.
// Runs on the exec layer; the edge list does not depend on the team size.
EdgeList Rmat(int scale, double avg_degree, double a, double b, double c,
              std::uint64_t seed);

// Convenience RMAT with Graph500 constants a=0.57, b=c=0.19.
EdgeList Rmat(int scale, double avg_degree, std::uint64_t seed);

// Barabasi-Albert preferential attachment: each new vertex attaches to
// `attach` existing vertices chosen proportionally to degree.
EdgeList BarabasiAlbert(NodeId n, NodeId attach, std::uint64_t seed);

// Star-heavy graph: `hubs` high-degree centers each connected to a random
// subset of leaves (Wiki-Talk-like broadcast topology).
EdgeList StarHeavy(NodeId n, NodeId hubs, double leaf_fraction,
                   std::uint64_t seed);

// Watts-Strogatz small world: a ring lattice where each vertex connects to
// its `k_nearest` nearest neighbors (k_nearest even), with each edge
// endpoint rewired uniformly with probability `rewire_p`. High clustering
// at low rewire_p, random-graph-like at rewire_p = 1.
EdgeList WattsStrogatz(NodeId n, NodeId k_nearest, double rewire_p,
                       std::uint64_t seed);

// --- Community / clique structure ----------------------------------------

// Overlapping-community (affiliation) model: `communities` vertex subsets of
// size in [min_size, max_size], members drawn uniformly; within a community
// each pair is an edge with probability `intra_p`. High intra_p plants
// near-cliques, which is how social/co-authorship clique structure arises.
EdgeList CommunityModel(NodeId n, NodeId communities, NodeId min_size,
                        NodeId max_size, double intra_p,
                        std::uint64_t seed);

// Appends `count` planted cliques with sizes uniform in [min_size, max_size]
// over vertex ids in [0, n) to `edges`. Cliques overlap freely.
void PlantCliques(EdgeList* edges, NodeId n, NodeId count, NodeId min_size,
                  NodeId max_size, std::uint64_t seed);

// Relabels vertices by a random permutation of [0, n). Generators place
// structure (hot regions, planted cliques) at low ids for overlap control;
// shuffling removes that id locality, matching real datasets whose vertex
// ids carry no structural meaning.
void ShuffleVertexIds(EdgeList* edges, NodeId n, std::uint64_t seed);

// --- Reference graphs with closed-form clique counts ---------------------

EdgeList CompleteGraph(NodeId n);             // K_n: C(n, k) k-cliques
EdgeList PathGraph(NodeId n);                 // no cliques beyond edges
EdgeList CycleGraph(NodeId n);                // ditto (n >= 4)
EdgeList StarGraph(NodeId n);                 // center 0, leaves 1..n-1
EdgeList CompleteBipartite(NodeId a, NodeId b);  // triangle-free
// Turán graph T(n, r): complete r-partite with balanced parts; the largest
// clique has exactly r vertices.
EdgeList TuranGraph(NodeId n, NodeId r);

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_GENERATORS_H_
