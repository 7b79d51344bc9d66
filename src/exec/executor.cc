#include "exec/executor.h"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/check.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace exec_detail {

std::vector<std::size_t> BuildChunkBounds(std::size_t n, int team,
                                          const ExecOptions& options) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  if (n == 0) return bounds;

  const std::size_t grain = std::max<std::size_t>(1, options.grain);
  const std::size_t target_chunks =
      std::max<std::size_t>(1, static_cast<std::size_t>(team) *
                                   std::max(1, options.chunks_per_worker));
  if (options.cost) {
    // Equal-estimated-work cuts: walk the prefix sum of the cost estimates
    // and cut every ~total/target_chunks units. Estimates are clamped to
    // >= 1 so zero-cost runs still advance the cut positions.
    double total = 0;
    std::vector<double> prefix(n);
    for (std::size_t i = 0; i < n; ++i) {
      total += std::max(1.0, options.cost(i));
      prefix[i] = total;
    }
    const double per_chunk =
        std::max(1.0, total / static_cast<double>(target_chunks));
    double next_cut = per_chunk;
    for (std::size_t i = 1; i < n; ++i) {
      if (prefix[i - 1] >= next_cut && i - bounds.back() >= grain) {
        bounds.push_back(i);
        next_cut = prefix[i - 1] + per_chunk;
      }
    }
  } else {
    const std::size_t chunk =
        std::max(grain, (n + target_chunks - 1) / target_chunks);
    for (std::size_t b = chunk; b < n; b += chunk) bounds.push_back(b);
  }
  bounds.push_back(n);
  return bounds;
}

void RecordExecTelemetry(TelemetryRegistry* telemetry,
                         const ExecStats& stats) {
  if (telemetry == nullptr) return;
  telemetry->AddCounter("exec.regions", 1);
  telemetry->AddCounter("exec.tasks", stats.tasks);
  telemetry->AddCounter("exec.chunks", stats.chunks);
  telemetry->SetSeries("exec.worker_busy_seconds",
                       stats.worker_busy_seconds);
  std::vector<double> chunk_series(stats.worker_chunks.size());
  for (std::size_t t = 0; t < stats.worker_chunks.size(); ++t)
    chunk_series[t] = static_cast<double>(stats.worker_chunks[t]);
  telemetry->SetSeries("exec.worker_chunks", std::move(chunk_series));
  telemetry->SetGauge("exec.team", static_cast<double>(stats.team));
  telemetry->SetGauge("exec.busy_cov",
                      CoeffOfVariation(stats.worker_busy_seconds));
  telemetry->RecordSpan("exec.region_wall", stats.seconds);
}

namespace {

// How long an idle helper, or a caller waiting for its helpers, spins
// before it parks. It covers nearly every gap between the regions of a
// pipeline (lj-k8: about 350 regions, 99 % of gaps under 0.2 ms, the
// longest under 5 ms), so they start without a wake-up, which costs tens
// of microseconds on an idle machine and far more on a busy one. The
// spin yields the CPU every few microseconds, so it delays only threads
// that would otherwise wait for a free CPU anyway.
constexpr std::chrono::milliseconds kSpin{1};

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins for up to kSpin, then parks on `word`, until it no longer holds
// `old`; returns the new value (acquire).
std::uint32_t AwaitChange(const std::atomic<std::uint32_t>& word,
                          std::uint32_t old) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 1;; ++i) {
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
    CpuRelax();
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::yield();
    }
  }
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

// Whether this thread is running a region's worker: a pool helper always,
// a caller while its region runs.
thread_local bool t_in_region = false;

}  // namespace

// One helper's mailbox. A region claims the helper through `busy`,
// writes the job and bumps `posted`; the helper runs the job and
// publishes its sequence number in `finished`. Only the claimer clears
// `busy`, once it has seen `finished`: so a helper serves one region at a
// time, and its claimer is the only thread that ever waits on `finished`.
struct alignas(128) Helper {
  std::atomic<bool> busy{false};
  std::atomic<std::uint32_t> posted{0};
  std::atomic<std::uint32_t> finished{0};
  // The job; written by the claimer before `posted`, read after it.
  void (*work)(void*, int) noexcept = nullptr;
  void* context = nullptr;
  int tid = 0;
  bool stop = false;
  // Claimer-owned while `busy`: the next helper of its team and the job
  // sequence number to wait for.
  Helper* next = nullptr;
  std::uint32_t awaited = 0;

  void Loop() {
    t_in_region = true;
    std::uint32_t seen = 0;
    for (;;) {
      seen = AwaitChange(posted, seen);
      if (stop) return;
      work(context, tid);
      finished.store(seen);
      finished.notify_one();
    }
  }

  void Post(void (*job)(void*, int) noexcept, void* job_context,
            int job_tid) {
    work = job;
    context = job_context;
    tid = job_tid;
    awaited = posted.load(std::memory_order_relaxed) + 1;
    posted.store(awaited);
    posted.notify_one();
  }

  void AwaitFinished() const {
    std::uint32_t done = finished.load(std::memory_order_acquire);
    while (done != awaited) done = AwaitChange(finished, done);
  }
};

namespace {

// The mailboxes live in static storage, not on the heap: the pool starts
// inside a process's first parallel region, and long-lived aligned blocks
// allocated there split the caller's heap (perfbench lj-k8 peak RSS rose
// by about 0.7 MB with heap mailboxes). Constant-initialized, so only the
// mailboxes of started helpers are ever touched. A team is at most the
// --threads flags' bound, so that many less one helpers suffice.
constinit Helper g_helpers[kMaxThreadsFlag - 1];

// The process-wide helper pool, and the one owner of the thread
// capacity: Claim applies the grant rule (see Team) and starts helpers
// under one lock. A region that is not nested in another starts helpers
// for whatever its grant finds no idle helper for, so the pool grows to
// the peak number of helpers that concurrent regions hold, which the
// grant rule keeps below the capacity. It never shrinks; its helpers stop
// and are joined at exit.
class Pool {
 public:
  Pool() : capacity_(std::max(1, DefaultThreadCapacity())) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    for (std::size_t h = 0; h < threads_.size(); ++h) {
      g_helpers[h].stop = true;
      g_helpers[h].posted.fetch_add(1);
      g_helpers[h].posted.notify_one();
      threads_[h].join();
    }
  }

  // Grants a team for `requested` threads and links its helpers into
  // *helpers: idle ones first, then, if `may_start`, new ones. Never
  // waits for a busy helper. Returns the team size, which is now in use.
  int Claim(int requested, bool may_start, Helper** helpers) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int want =
        requested > 0 ? std::min(requested, capacity_) : capacity_;
    const int grant = std::min(want, std::max(1, capacity_ - in_use_));
    int team = 1;
    Helper** tail = helpers;
    const auto add = [&](Helper* helper) {
      helper->next = nullptr;
      *tail = helper;
      tail = &helper->next;
      ++team;
    };
    for (std::size_t h = 0; h < threads_.size() && team < grant; ++h) {
      bool idle = false;
      if (g_helpers[h].busy.compare_exchange_strong(
              idle, true, std::memory_order_acquire))
        add(&g_helpers[h]);
    }
    while (may_start && team < grant &&
           threads_.size() < std::size(g_helpers)) {
      Helper* helper = &g_helpers[threads_.size()];
      helper->busy.store(true, std::memory_order_relaxed);
      threads_.emplace_back([helper] { helper->Loop(); });
      add(helper);
    }
    in_use_ += team;
    return team;
  }

  void Release(int team) {
    std::lock_guard<std::mutex> lock(mutex_);
    in_use_ -= team;
    DCHECK_GE(in_use_, 0);
  }

  int capacity() {
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
  }

  void SetCapacity(int capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
  }

  int in_use() {
    std::lock_guard<std::mutex> lock(mutex_);
    return in_use_;
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

 private:
  std::mutex mutex_;  // guards everything below
  int capacity_;
  int in_use_ = 0;  // the sum of the running regions' teams
  std::vector<std::thread> threads_;  // threads_[h] runs g_helpers[h]
};

Pool& ThePool() {
  static Pool pool;
  return pool;
}

}  // namespace

Team::Team(int requested)
    : size_(ThePool().Claim(requested, !t_in_region, &helpers_)) {}

// Hands the helpers back to the pool, then the team's capacity: the other
// order could let a region be granted threads whose helpers are still
// busy, and start more helpers than the capacity needs. A region returns
// only after this, so the caller's next region finds the helpers idle.
Team::~Team() {
  for (Helper* helper = helpers_; helper != nullptr;) {
    Helper* next = helper->next;  // a new claimer may overwrite it
    helper->busy.store(false, std::memory_order_release);
    helper = next;
  }
  ThePool().Release(size_);
}

void Team::Run(void (*work)(void* context, int tid) noexcept,
               void* context) {
  int tid = 1;
  for (Helper* helper = helpers_; helper != nullptr; helper = helper->next)
    helper->Post(work, context, tid++);
  const bool nested = t_in_region;
  t_in_region = true;
  work(context, 0);
  t_in_region = nested;
  for (Helper* helper = helpers_; helper != nullptr; helper = helper->next)
    helper->AwaitFinished();
}

int DefaultThreadCapacity() {
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

int ThreadsInUse() { return ThePool().in_use(); }

std::size_t PoolHelpers() { return ThePool().size(); }

}  // namespace exec_detail

int ThreadCapacity() { return exec_detail::ThePool().capacity(); }

void SetThreadCapacity(int capacity) {
  CHECK_GE(capacity, 1) << "thread capacity must be positive";
  exec_detail::ThePool().SetCapacity(capacity);
}

}  // namespace pivotscale
