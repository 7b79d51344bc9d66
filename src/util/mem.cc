#include "util/mem.h"

#include <sys/resource.h>

namespace pivotscale {

std::uint64_t PeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace pivotscale
