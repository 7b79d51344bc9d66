#include "graph/builder.h"

#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/executor.h"
#include "util/prefix_sum.h"

namespace pivotscale {

namespace {

// Input edges per counting/scatter chunk, and the cap on chunks. Each chunk
// owns one cursor per bucket, so at most kMaxChunks x kMaxBuckets cursors.
constexpr std::size_t kChunkEdges = std::size_t{1} << 16;
constexpr std::size_t kMaxChunks = 64;
// A vertex bucket is a range of 2^shift consecutive ids, with the smallest
// shift that keeps the bucket count at or below this.
constexpr std::uint64_t kMaxBuckets = 1024;

// A directed entry in the scatter buffer: source in the high word.
std::uint64_t Entry(NodeId src, NodeId dst) {
  return (std::uint64_t{src} << 32) | dst;
}
NodeId Src(std::uint64_t entry) { return static_cast<NodeId>(entry >> 32); }
NodeId Dst(std::uint64_t entry) { return static_cast<NodeId>(entry); }

}  // namespace

Graph BuildGraph(EdgeList edges, NodeId num_nodes) {
  const std::size_t m = edges.size();
  ExecOptions by_edge;
  by_edge.grain = kChunkEdges;
  // Largest endpoint of a non-loop edge plus one, in 64 bits so that id
  // 2^32 - 1 cannot wrap to 0.
  const std::uint64_t span = ParallelReduce(
      m, by_edge, std::uint64_t{0},
      [&edges](std::uint64_t& acc, std::size_t i) {
        const auto [u, v] = edges[i];
        if (u != v) acc = std::max(acc, std::uint64_t{std::max(u, v)} + 1);
      },
      [](std::uint64_t& acc, std::uint64_t part) {
        acc = std::max(acc, part);
      });
  if (num_nodes == 0) {
    if (span > std::numeric_limits<NodeId>::max())
      throw std::invalid_argument(
          "BuildGraph: vertex id " + std::to_string(span - 1) +
          " leaves no vertex count within the NodeId range");
    num_nodes = static_cast<NodeId>(span);
  } else if (span > num_nodes) {
    throw std::invalid_argument("BuildGraph: endpoint >= num_nodes");
  }
  const NodeId n = num_nodes;
  if (n == 0) return Graph({0}, {}, true);

  int shift = 0;
  while (((n - 1) >> shift) + std::uint64_t{1} > kMaxBuckets) ++shift;
  const std::size_t buckets = ((n - 1) >> shift) + std::size_t{1};
  const std::size_t chunks =
      std::clamp<std::size_t>((m + kChunkEdges - 1) / kChunkEdges, 1,
                              kMaxChunks);
  const std::size_t chunk_len = (m + chunks - 1) / chunks;
  const auto for_each_edge = [&](std::size_t c, auto&& visit) {
    const std::size_t end = std::min(m, (c + 1) * chunk_len);
    for (std::size_t i = std::min(m, c * chunk_len); i < end; ++i)
      if (edges[i].first != edges[i].second)
        visit(edges[i].first, edges[i].second);
  };

  // cursor[c * buckets + b] counts the entries chunk c sends to bucket b,
  // then becomes the next slot chunk c writes there. Only chunk c touches
  // its row, so the scatter needs no atomics.
  std::vector<EdgeId> cursor(chunks * buckets, 0);
  ParallelFor(chunks, ExecOptions{}, [&](std::size_t c) {
    EdgeId* row = cursor.data() + c * buckets;
    for_each_edge(c, [&](NodeId u, NodeId v) {
      ++row[u >> shift];
      ++row[v >> shift];
    });
  });
  // Bucket-major exclusive scan: bucket b fills [bucket_begin[b],
  // bucket_begin[b + 1]) of the scatter buffer, chunk by chunk.
  std::vector<EdgeId> bucket_begin(buckets + 1);
  EdgeId entries = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_begin[b] = entries;
    for (std::size_t c = 0; c < chunks; ++c) {
      const EdgeId count = cursor[c * buckets + b];
      cursor[c * buckets + b] = entries;
      entries += count;
    }
  }
  bucket_begin[buckets] = entries;

  // The scratch is allocated before the CSR arrays: on the lj-k8 benchmark
  // input the reverse order leaves about 1 MB more resident once the
  // counting that follows the build has run.
  auto scatter = std::make_unique_for_overwrite<std::uint64_t[]>(entries);
  std::vector<EdgeId> offsets(std::size_t{n} + 1, 0);
  std::vector<NodeId> neighbors(entries);
  ParallelFor(chunks, ExecOptions{}, [&](std::size_t c) {
    EdgeId* row = cursor.data() + c * buckets;
    for_each_edge(c, [&](NodeId u, NodeId v) {
      scatter[row[u >> shift]++] = Entry(u, v);
      scatter[row[v >> shift]++] = Entry(v, u);
    });
  });
  EdgeList().swap(edges);

  // Per bucket: counting-sort its entries into rows of `neighbors`, then
  // sort, de-duplicate and pack the rows to the bucket's front. offsets[v]
  // is row v's cursor until it holds v's degree. Buckets own disjoint
  // vertex ranges and slot ranges.
  std::vector<EdgeId> packed(buckets);
  ExecOptions by_bucket;
  by_bucket.cost = [&bucket_begin](std::size_t b) {
    return static_cast<double>(bucket_begin[b + 1] - bucket_begin[b]) + 1;
  };
  ParallelFor(buckets, by_bucket, [&](std::size_t b) {
    const NodeId first = static_cast<NodeId>(b << shift);
    const NodeId last = static_cast<NodeId>(
        std::min<std::uint64_t>(n, std::uint64_t{b + 1} << shift));
    const EdgeId begin = bucket_begin[b], end = bucket_begin[b + 1];
    for (EdgeId i = begin; i < end; ++i) ++offsets[Src(scatter[i])];
    EdgeId next = begin;
    for (NodeId v = first; v < last; ++v)
      next += std::exchange(offsets[v], next);
    for (EdgeId i = begin; i < end; ++i)
      neighbors[offsets[Src(scatter[i])]++] = Dst(scatter[i]);
    NodeId* const nbrs = neighbors.data();
    EdgeId row = begin, out = begin;
    for (NodeId v = first; v < last; ++v) {
      const EdgeId row_end = offsets[v];
      std::sort(nbrs + row, nbrs + row_end);
      const EdgeId degree = std::unique(nbrs + row, nbrs + row_end) -
                            (nbrs + row);
      if (out != row) std::copy(nbrs + row, nbrs + row + degree, nbrs + out);
      offsets[v] = degree;
      out += degree;
      row = row_end;
    }
    packed[b] = out - begin;
  });
  scatter.reset();

  // Close the gaps duplicates left between buckets. Bucket b only moves
  // left, below every later bucket, so one ascending pass is safe.
  EdgeId size = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (size != bucket_begin[b])
      std::memmove(neighbors.data() + size,
                   neighbors.data() + bucket_begin[b],
                   packed[b] * sizeof(NodeId));
    size += packed[b];
  }
  neighbors.resize(size);
  neighbors.shrink_to_fit();
  // Degrees to offsets; offsets[n] was 0 and becomes the entry total.
  ParallelPrefixSum(offsets, &offsets);
  // Hand the freed scratch back to the system: callers that measure their
  // peak resident set after a build would otherwise be charged for it.
  malloc_trim(0);
  return Graph(std::move(offsets), std::move(neighbors), true);
}

Graph BuildUndirected(EdgeList edges, NodeId n) {
  return BuildGraph(std::move(edges), n);
}

}  // namespace pivotscale
