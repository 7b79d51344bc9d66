#include "graph/generators.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <set>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "exec/executor.h"
#include "util/rng.h"

namespace pivotscale {

namespace {

// Edges per parallel chunk of Rmat and of the relabel pass. Output does not
// depend on it: each Rmat chunk starts from its exact serial-stream state.
constexpr EdgeId kChunkEdges = EdgeId{1} << 16;

// A linear-probing set of nonzero 64-bit keys, at most half full. The
// table is mapped from the kernel, not malloc'd: freeing a malloc'd block
// this large raises glibc's dynamic mmap threshold to its size, which
// moves the rest of a dataset's mid-size vectors into the heap and
// fragments it (perfbench lj-k8's peak RSS read 3-7 % higher that way).
class KeySet {
 public:
  explicit KeySet(std::size_t capacity)
      : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 1) * 2)) {
    void* table = mmap(nullptr, slots_ * sizeof(std::uint64_t),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (table == MAP_FAILED)
      throw std::system_error(errno, std::generic_category(), "GnM: mmap");
    table_ = static_cast<std::uint64_t*>(table);  // zero-filled
  }
  ~KeySet() { munmap(table_, slots_ * sizeof(std::uint64_t)); }
  KeySet(const KeySet&) = delete;
  KeySet& operator=(const KeySet&) = delete;

  // Adds `key`; returns whether it was absent.
  bool Insert(std::uint64_t key) {
    std::size_t slot = SplitMix64::Mix(key) & (slots_ - 1);
    for (; table_[slot] != 0; slot = (slot + 1) & (slots_ - 1))
      if (table_[slot] == key) return false;
    table_[slot] = key;
    return true;
  }

 private:
  std::size_t slots_;
  std::uint64_t* table_ = nullptr;
};

}  // namespace

EdgeList ErdosRenyi(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  if (p > 0 && n > 1)
    edges.reserve(static_cast<std::size_t>(p * n * (n - 1) / 2 * 1.1));
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (rng.Chance(p)) edges.emplace_back(u, v);
  return edges;
}

EdgeList GnM(NodeId n, EdgeId m, std::uint64_t seed) {
  if (n < 2) return {};
  const EdgeId max_edges = static_cast<EdgeId>(n) * (n - 1) / 2;
  if (m > max_edges)
    throw std::invalid_argument("GnM: m exceeds possible edges");
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(m);
  KeySet chosen(m);
  while (edges.size() < m) {
    NodeId u = static_cast<NodeId>(rng.Below(n));
    NodeId v = static_cast<NodeId>(rng.Below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    // u < v, so the key is never 0.
    if (chosen.Insert((std::uint64_t{u} << 32) | v)) edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

EdgeList Rmat(int scale, double avg_degree, double a, double b, double c,
              std::uint64_t seed) {
  if (scale < 1 || scale > 30)
    throw std::invalid_argument("Rmat: scale out of range");
  const double d = 1.0 - a - b - c;
  if (a < 0 || b < 0 || c < 0 || d < 0)
    throw std::invalid_argument("Rmat: probabilities must sum to <= 1");
  const NodeId n = NodeId{1} << scale;
  const EdgeId m =
      static_cast<EdgeId>(avg_degree * static_cast<double>(n) / 2.0);
  // Chunk i generates edges [i, i + 1) * kChunkEdges from the state the
  // serial stream reaches after i * kChunkEdges * scale draws, so the edge
  // list is the serial one at every team size.
  const std::size_t chunks = (m + kChunkEdges - 1) / kChunkEdges;
  std::vector<Rng> starts(chunks, Rng(seed));
  if (chunks > 1) {
    const RngJump jump(kChunkEdges * static_cast<std::uint64_t>(scale));
    for (std::size_t chunk = 1; chunk < chunks; ++chunk) {
      starts[chunk] = starts[chunk - 1];
      jump.Apply(&starts[chunk]);
    }
  }
  // Quadrants by r in [0, a), [a, ab), [ab, abc), [abc, 1): none, v, u,
  // both. The bit of u is r >= ab; the bit of v is the parity of the three
  // comparisons, so the loop has no data-dependent branch.
  const double ab = a + b;
  const double abc = a + b + c;
  EdgeList edges(m);
  ParallelFor(chunks, ExecOptions{}, [&](std::size_t chunk) {
    Rng rng = starts[chunk];
    const EdgeId end = std::min<EdgeId>(m, (chunk + 1) * kChunkEdges);
    for (EdgeId i = chunk * kChunkEdges; i < end; ++i) {
      NodeId u = 0, v = 0;
      for (int bit = scale - 1; bit >= 0; --bit) {
        const double r = rng.NextDouble();
        const NodeId past_b = r >= ab;
        u |= past_b << bit;
        v |= (NodeId{r >= a} ^ past_b ^ NodeId{r >= abc}) << bit;
      }
      edges[i] = {u, v};
    }
  });
  return edges;
}

EdgeList Rmat(int scale, double avg_degree, std::uint64_t seed) {
  return Rmat(scale, avg_degree, 0.57, 0.19, 0.19, seed);
}

EdgeList BarabasiAlbert(NodeId n, NodeId attach, std::uint64_t seed) {
  if (attach == 0 || n <= attach)
    throw std::invalid_argument("BarabasiAlbert: need n > attach > 0");
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * attach);
  // `targets` holds one entry per edge endpoint; sampling uniformly from it
  // realizes degree-proportional attachment.
  std::vector<NodeId> targets;
  targets.reserve(static_cast<std::size_t>(n) * attach * 2);
  // Seed clique over the first attach+1 vertices.
  for (NodeId u = 0; u <= attach; ++u)
    for (NodeId v = u + 1; v <= attach; ++v) {
      edges.emplace_back(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  for (NodeId u = attach + 1; u < n; ++u) {
    std::set<NodeId> picked;
    while (picked.size() < attach)
      picked.insert(targets[rng.Below(targets.size())]);
    for (NodeId v : picked) {
      edges.emplace_back(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  return edges;
}

EdgeList StarHeavy(NodeId n, NodeId hubs, double leaf_fraction,
                   std::uint64_t seed) {
  if (hubs >= n) throw std::invalid_argument("StarHeavy: hubs >= n");
  Rng rng(seed);
  EdgeList edges;
  for (NodeId h = 0; h < hubs; ++h) {
    for (NodeId v = hubs; v < n; ++v)
      if (rng.Chance(leaf_fraction)) edges.emplace_back(h, v);
  }
  // Hubs talk to each other (this is what makes the topology assortative at
  // the top: the max-degree vertex has a high-degree neighbor).
  for (NodeId h1 = 0; h1 < hubs; ++h1)
    for (NodeId h2 = h1 + 1; h2 < hubs; ++h2) edges.emplace_back(h1, h2);
  return edges;
}

EdgeList WattsStrogatz(NodeId n, NodeId k_nearest, double rewire_p,
                       std::uint64_t seed) {
  if (k_nearest % 2 != 0 || k_nearest == 0 || k_nearest >= n)
    throw std::invalid_argument(
        "WattsStrogatz: k_nearest must be even and in (0, n)");
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * k_nearest / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId step = 1; step <= k_nearest / 2; ++step) {
      NodeId v = (u + step) % n;
      if (rng.Chance(rewire_p)) {
        // Rewire the far endpoint to a uniform non-self target; duplicate
        // edges are cleaned up by the builder.
        NodeId w = static_cast<NodeId>(rng.Below(n));
        while (w == u) w = static_cast<NodeId>(rng.Below(n));
        v = w;
      }
      edges.emplace_back(u, v);
    }
  }
  return edges;
}

EdgeList CommunityModel(NodeId n, NodeId communities, NodeId min_size,
                        NodeId max_size, double intra_p,
                        std::uint64_t seed) {
  if (min_size < 2 || max_size < min_size || max_size > n)
    throw std::invalid_argument("CommunityModel: bad size range");
  Rng rng(seed);
  EdgeList edges;
  std::vector<NodeId> members;
  for (NodeId c = 0; c < communities; ++c) {
    const NodeId size = static_cast<NodeId>(
        rng.Between(min_size, max_size));
    members.clear();
    std::set<NodeId> chosen;
    while (chosen.size() < size)
      chosen.insert(static_cast<NodeId>(rng.Below(n)));
    members.assign(chosen.begin(), chosen.end());
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = i + 1; j < members.size(); ++j)
        if (rng.Chance(intra_p)) edges.emplace_back(members[i], members[j]);
  }
  return edges;
}

void PlantCliques(EdgeList* edges, NodeId n, NodeId count, NodeId min_size,
                  NodeId max_size, std::uint64_t seed) {
  if (min_size < 2 || max_size < min_size || max_size > n)
    throw std::invalid_argument("PlantCliques: bad size range");
  Rng rng(seed);
  for (NodeId c = 0; c < count; ++c) {
    const NodeId size = static_cast<NodeId>(
        rng.Between(min_size, max_size));
    std::set<NodeId> chosen;
    while (chosen.size() < size)
      chosen.insert(static_cast<NodeId>(rng.Below(n)));
    std::vector<NodeId> members(chosen.begin(), chosen.end());
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = i + 1; j < members.size(); ++j)
        edges->emplace_back(members[i], members[j]);
  }
}

void ShuffleVertexIds(EdgeList* edges, NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> relabel(n);
  for (NodeId i = 0; i < n; ++i) relabel[i] = i;
  // Fisher-Yates.
  for (NodeId i = n; i > 1; --i)
    std::swap(relabel[i - 1], relabel[rng.Below(i)]);
  ExecOptions by_edge;
  by_edge.grain = kChunkEdges;
  ParallelFor(edges->size(), by_edge, [edges, &relabel](std::size_t i) {
    Edge& e = (*edges)[i];
    e.first = relabel[e.first];
    e.second = relabel[e.second];
  });
}

EdgeList CompleteGraph(NodeId n) {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  return edges;
}

EdgeList PathGraph(NodeId n) {
  EdgeList edges;
  for (NodeId u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  return edges;
}

EdgeList CycleGraph(NodeId n) {
  EdgeList edges = PathGraph(n);
  if (n >= 3) edges.emplace_back(n - 1, 0);
  return edges;
}

EdgeList StarGraph(NodeId n) {
  EdgeList edges;
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return edges;
}

EdgeList CompleteBipartite(NodeId a, NodeId b) {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v) edges.emplace_back(u, a + v);
  return edges;
}

EdgeList TuranGraph(NodeId n, NodeId r) {
  if (r == 0) throw std::invalid_argument("TuranGraph: r must be >= 1");
  EdgeList edges;
  // Vertex u belongs to part u % r; connect vertices in different parts.
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (u % r != v % r) edges.emplace_back(u, v);
  return edges;
}

}  // namespace pivotscale
