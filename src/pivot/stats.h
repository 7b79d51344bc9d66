// Instrumentation policies for the counting recursion.
//
// The paper's Table II profiles the counting phase with hardware counters
// (instructions, function calls, LLC MPKI, IPC). This environment has no
// reliable hardware counters, so the recursion is templated over a stats
// policy: NoStats compiles every hook away (the production path),
// OpCountStats counts recursive calls / adjacency-entry operations /
// subgraph inductions / membership tests (the instruction-count proxy), and
// TraceStats additionally streams modeled memory addresses into a cache
// simulator (the MPKI proxy). See DESIGN.md "Environment substitutions".
#ifndef PIVOTSCALE_PIVOT_STATS_H_
#define PIVOTSCALE_PIVOT_STATS_H_

#include <cstdint>

namespace pivotscale {

// Memory regions of a subgraph structure, for modeled addresses.
enum class TouchRegion : int {
  kAdjRow = 0,   // adjacency row header / index entry for a vertex
  kAdjData = 1,  // adjacency list payload
  kDeg = 2,      // degree array
  kFlags = 3,    // mark/removed byte maps
};

// Aggregated operation counters (also the cross-policy result type). The
// units depend on the kernel (docs/algorithm.md, "Operation counters"):
// PivotCounter over dense/sparse/remap subgraphs counts adjacency entries
// and flag tests; BitmapCounter counts bitset operations.
struct OpCounters {
  std::uint64_t calls = 0;        // recursion nodes (Recurse invocations)
  // PivotCounter: adjacency entries scanned. BitmapCounter: one per
  // row popcount in a pivot scan or a closed-form tail pass.
  std::uint64_t edge_ops = 0;
  std::uint64_t induces = 0;      // child candidate sets (branch descents)
  // PivotCounter: mark/removed membership tests. BitmapCounter: always 0.
  std::uint64_t memberships = 0;

  OpCounters& operator+=(const OpCounters& o) {
    calls += o.calls;
    edge_ops += o.edge_ops;
    induces += o.induces;
    memberships += o.memberships;
    return *this;
  }
};

// Production policy: zero-overhead.
struct NoStats {
  static constexpr bool kEnabled = false;
  static constexpr bool kTrace = false;
  void OnCall() {}
  void OnEdgeOp() {}
  void OnInduce() {}
  void OnMembership() {}
  void OnTouch(TouchRegion, std::uint64_t) {}
  OpCounters Snapshot() const { return {}; }
};

// Counting policy: the instruction/function-call proxy for Table II.
struct OpCountStats {
  static constexpr bool kEnabled = true;
  static constexpr bool kTrace = false;
  OpCounters ops;
  void OnCall() { ++ops.calls; }
  void OnEdgeOp() { ++ops.edge_ops; }
  void OnInduce() { ++ops.induces; }
  void OnMembership() { ++ops.memberships; }
  void OnTouch(TouchRegion, std::uint64_t) {}
  OpCounters Snapshot() const { return ops; }
};

// Tracing policy: ops plus modeled addresses fed to a cache-simulator-like
// sink. Sink must provide void Access(std::uint64_t address).
//
// Address model: each region is a disjoint arena; an access to element
// `index` of a region lands at region_base + index * element size. For the
// dense structure indices span [0, |V|); after remapping they span
// [0, max out-degree) — which is precisely the locality difference the
// paper attributes the MPKI gap to.
template <typename Sink>
struct TraceStats {
  static constexpr bool kEnabled = true;
  static constexpr bool kTrace = true;

  OpCounters ops;
  Sink* sink = nullptr;

  // Region arena bases, far apart so regions never alias.
  static constexpr std::uint64_t kRegionStride = std::uint64_t{1} << 40;

  void OnCall() { ++ops.calls; }
  void OnEdgeOp() { ++ops.edge_ops; }
  void OnInduce() { ++ops.induces; }
  void OnMembership() { ++ops.memberships; }
  void OnTouch(TouchRegion region, std::uint64_t index) {
    // Element sizes: row headers 24B (vector header), payload 4B (NodeId),
    // degrees 4B, flags 1B.
    static constexpr std::uint64_t kElemSize[] = {24, 4, 4, 1};
    const int r = static_cast<int>(region);
    sink->Access(static_cast<std::uint64_t>(r) * kRegionStride +
                 index * kElemSize[r]);
  }
  OpCounters Snapshot() const { return ops; }
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_STATS_H_
