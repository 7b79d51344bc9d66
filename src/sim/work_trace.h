// Per-root work traces.
//
// The scaling study (Figure 11) needs the distribution of work across root
// vertices: on real silicon that distribution is what the exec layer's
// dynamic scheduler balances, and on this single-core reproduction it is the input
// to the scheduler simulation in scaling_sim.h. A trace records, for every
// root vertex processed, the measured nanoseconds and the adjacency-entry
// operation count (a machine-independent work measure).
#ifndef PIVOTSCALE_SIM_WORK_TRACE_H_
#define PIVOTSCALE_SIM_WORK_TRACE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace pivotscale {

struct RootWork {
  NodeId root = 0;
  std::uint64_t nanos = 0;      // measured wall time for this root
  std::uint64_t edge_ops = 0;   // adjacency entries scanned for this root
  std::uint64_t build_ops = 0;  // subgraph-build size proxy (out-degree)
};

struct WorkTrace {
  std::vector<RootWork> roots;

  std::uint64_t TotalNanos() const;
  std::uint64_t TotalEdgeOps() const;
  // Largest single-root work — the lower bound of any schedule's makespan.
  std::uint64_t MaxNanos() const;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_SIM_WORK_TRACE_H_
