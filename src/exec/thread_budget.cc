#include "exec/thread_budget.h"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <thread>

#include "util/check.h"
#include "util/cli.h"

namespace pivotscale {
namespace {

// OMP_NUM_THREADS's first entry ("4" or "4,2") when it is a whole number
// in [1, kMaxThreadsFlag], the --threads flags' range; otherwise the CPUs
// this process may run on.
int DefaultCapacity() {
  if (const char* env = std::getenv("OMP_NUM_THREADS")) {
    char* end = nullptr;
    const long threads = std::strtol(env, &end, 10);
    while (end != env && std::isspace(static_cast<unsigned char>(*end)))
      ++end;
    if (end != env && (*end == '\0' || *end == ',') && threads >= 1 &&
        threads <= kMaxThreadsFlag)
      return static_cast<int>(threads);
  }
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) return CPU_COUNT(&cpus);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

void ThreadLease::Release() {
  if (budget_ != nullptr) budget_->Release(threads_);
  budget_ = nullptr;
  threads_ = 0;
}

ThreadBudget::ThreadBudget(int capacity)
    : capacity_(std::max(1, capacity > 0 ? capacity : DefaultCapacity())) {}

ThreadBudget& ThreadBudget::Global() {
  static ThreadBudget budget;
  return budget;
}

ThreadLease ThreadBudget::Acquire(int requested) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int want =
      requested > 0 ? std::min(requested, capacity_) : capacity_;
  const int free = std::max(1, capacity_ - in_use_);  // min-1 progress
  const int granted = std::min(want, free);
  DCHECK_GE(granted, 1);
  in_use_ += granted;
  return ThreadLease(this, granted);
}

int ThreadBudget::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

int ThreadBudget::in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_use_;
}

void ThreadBudget::SetCapacity(int capacity) {
  CHECK_GE(capacity, 1) << "ThreadBudget capacity must be positive";
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
}

void ThreadBudget::Release(int threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  in_use_ -= threads;
  DCHECK_GE(in_use_, 0);
}

}  // namespace pivotscale
