// Process-wide thread-budget registry: the single owner of "how many
// threads may be busy at once".
//
// Without it, every parallel site would pick its own team size from the
// machine and the serving path would multiply that by the worker-pool
// size, so N workers x T counting threads could oversubscribe the machine
// N-fold. Every parallel region (src/exec/executor.h) and every
// long-lived worker pool first leases capacity here:
//
//   ThreadLease lease = ThreadBudget::Global().Acquire(requested);
//   ... run a team of lease.threads() ...   // released by the destructor
//
// Grant rule: a request of 0 means "everything currently free". A request
// never blocks and is never granted 0 — when the budget is exhausted the
// lease still grants one thread (the caller's own), so progress is always
// possible. Under full contention the busy-thread total can therefore
// exceed capacity by one thread per concurrent lease; it can never exceed
// it multiplicatively, which is the failure mode this registry exists to
// prevent.
#ifndef PIVOTSCALE_EXEC_THREAD_BUDGET_H_
#define PIVOTSCALE_EXEC_THREAD_BUDGET_H_

#include <mutex>

namespace pivotscale {

class ThreadBudget;

// RAII capacity grant. Movable, not copyable; returns its grant to the
// budget on destruction.
class ThreadLease {
 public:
  ThreadLease() = default;
  ThreadLease(ThreadLease&& other) noexcept
      : budget_(other.budget_), threads_(other.threads_) {
    other.budget_ = nullptr;
    other.threads_ = 0;
  }
  ThreadLease& operator=(ThreadLease&& other) noexcept {
    if (this != &other) {
      Release();
      budget_ = other.budget_;
      threads_ = other.threads_;
      other.budget_ = nullptr;
      other.threads_ = 0;
    }
    return *this;
  }
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;
  ~ThreadLease() { Release(); }

  // Number of threads this lease grants (>= 1 for a live lease).
  int threads() const { return threads_; }

 private:
  friend class ThreadBudget;
  ThreadLease(ThreadBudget* budget, int threads)
      : budget_(budget), threads_(threads) {}
  void Release();

  ThreadBudget* budget_ = nullptr;
  int threads_ = 0;
};

class ThreadBudget {
 public:
  // capacity 0 = derive from the environment: the first entry of
  // OMP_NUM_THREADS when it is a thread count in [1, 4096] (so scripts
  // that size OpenMP programs size this one too), otherwise the number
  // of CPUs in the process's affinity mask.
  explicit ThreadBudget(int capacity = 0);
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;

  // The shared process-wide budget every executor region and worker pool
  // draws from.
  static ThreadBudget& Global();

  // Leases up to `requested` threads (0 = everything currently free).
  // Never blocks; always grants at least one thread. The grant is also
  // capped at capacity(), so an absurd request cannot oversubscribe.
  ThreadLease Acquire(int requested);

  int capacity() const;
  // Threads currently out on leases (may transiently exceed capacity by
  // the min-1 progress grants).
  int in_use() const;

  // Re-caps the budget (binaries' --threads flag; tests). Must be >= 1.
  // Applies to leases acquired after the call; outstanding leases keep
  // their grants.
  void SetCapacity(int capacity);

 private:
  friend class ThreadLease;
  void Release(int threads);

  mutable std::mutex mutex_;
  int capacity_;
  int in_use_ = 0;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_EXEC_THREAD_BUDGET_H_
