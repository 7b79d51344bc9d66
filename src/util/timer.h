// Monotonic wall-clock timing: every phase breakdown (heuristic, ordering,
// directionalization, counting) is measured with this one stopwatch.
#ifndef PIVOTSCALE_UTIL_TIMER_H_
#define PIVOTSCALE_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace pivotscale {

// A simple monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  // Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  // Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Nanoseconds elapsed since construction or the last Reset().
  std::uint64_t Nanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_TIMER_H_
