// Process memory measurement.
//
// Section VI-D of the paper measures maximum resident set size of the whole
// process; this wrapper exposes the same number via getrusage so the memory
// study can report both exact per-structure byte accounting and the
// process-level view.
#ifndef PIVOTSCALE_UTIL_MEM_H_
#define PIVOTSCALE_UTIL_MEM_H_

#include <cstdint>

namespace pivotscale {

// Peak resident set size of this process so far, in bytes.
std::uint64_t PeakRssBytes();

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_MEM_H_
