#include "util/check.h"

#include <cstdio>
#include <cstdlib>

namespace pivotscale {
namespace check_internal {

CheckFailure::CheckFailure(const char* file, int line,
                           const char* condition,
                           const std::string& operands) {
  stream_ << file << ':' << line << ": CHECK failed: " << condition
          << operands << ' ';
}

CheckFailure::~CheckFailure() {
  stream_ << '\n';
  const std::string message = stream_.str();
  // fwrite, not iostreams: the failure path must not depend on cout/cerr
  // stream state and must stay signal-safe-adjacent right before abort.
  std::fwrite(message.data(), 1, message.size(), stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace check_internal

void ExitIfCpuLacksPopcnt([[maybe_unused]] bool has_popcnt) {
#if defined(__x86_64__)
  if (has_popcnt) return;
  std::fputs("error: this CPU lacks POPCNT; pivotscale needs an x86-64 CPU "
             "with POPCNT (x86-64-v2)\n", stderr);
  std::_Exit(1);
#endif
}

#if defined(__x86_64__)
namespace {
// Priority 101, the first a program may use: before every default-priority
// static initializer, and maybe before libgcc's own CPU probe.
__attribute__((constructor(101))) void ExitAtStartUpIfCpuLacksPopcnt() {
  __builtin_cpu_init();
  ExitIfCpuLacksPopcnt(__builtin_cpu_supports("popcnt"));
}
}  // namespace
#endif
}  // namespace pivotscale
