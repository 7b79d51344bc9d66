#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

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

  // Hands the claimed helper its job; returns the sequence number to wait
  // for.
  std::uint32_t Post(void (*job)(void*, int) noexcept, void* job_context,
                     int job_tid) {
    work = job;
    context = job_context;
    tid = job_tid;
    const std::uint32_t seq = posted.load(std::memory_order_relaxed) + 1;
    posted.store(seq);
    posted.notify_one();
    return seq;
  }

  // Waits for job `seq` and hands the helper back to the pool.
  void AwaitAndRelease(std::uint32_t seq) {
    std::uint32_t done = finished.load(std::memory_order_acquire);
    while (done != seq) done = AwaitChange(finished, done);
    busy.store(false, std::memory_order_release);
  }
};

// The mailboxes live in static storage, not on the heap: the pool starts
// inside a process's first parallel region, and long-lived aligned blocks
// allocated there split the caller's heap (perfbench lj-k8 peak RSS rose
// by about 0.7 MB with heap mailboxes). Constant-initialized, so only the
// mailboxes of started helpers are ever touched. A team is at most the
// --threads flags' bound, so that many less one helpers suffice.
constinit Helper g_helpers[kMaxThreadsFlag - 1];

// The process-wide helper pool. A region that is not nested in another
// starts helpers for whatever its grant finds no idle helper for, so the
// pool grows to the peak number of helpers that concurrent regions hold,
// which ThreadBudget keeps below its capacity. It never shrinks; its
// helpers stop and are joined at exit.
class Pool {
 public:
  Pool() = default;
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

  // Claims up to `want` helpers into `out`: idle ones first, then, if
  // `may_start`, new ones. Never waits for a busy helper.
  void Claim(std::size_t want, bool may_start, std::vector<Helper*>* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < threads_.size() && out->size() < want; ++h) {
      bool idle = false;
      if (g_helpers[h].busy.compare_exchange_strong(
              idle, true, std::memory_order_acquire))
        out->push_back(&g_helpers[h]);
    }
    while (may_start && out->size() < want &&
           threads_.size() < std::size(g_helpers)) {
      Helper* helper = &g_helpers[threads_.size()];
      helper->busy.store(true, std::memory_order_relaxed);
      threads_.emplace_back([helper] { helper->Loop(); });
      out->push_back(helper);
    }
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

 private:
  std::mutex mutex_;  // guards threads_
  std::vector<std::thread> threads_;  // threads_[h] runs g_helpers[h]
};

Pool& ThePool() {
  static Pool pool;
  return pool;
}

}  // namespace

int RunTeam(int granted, void (*work)(void* context, int tid) noexcept,
            void* context) {
  const bool nested = t_in_region;
  std::vector<Helper*> helpers;
  if (granted > 1) {
    helpers.reserve(static_cast<std::size_t>(granted) - 1);
    ThePool().Claim(static_cast<std::size_t>(granted) - 1, !nested,
                    &helpers);
  }
  std::vector<std::uint32_t> seqs(helpers.size());
  for (std::size_t h = 0; h < helpers.size(); ++h)
    seqs[h] = helpers[h]->Post(work, context, static_cast<int>(h) + 1);
  t_in_region = true;
  work(context, 0);
  t_in_region = nested;
  for (std::size_t h = 0; h < helpers.size(); ++h)
    helpers[h]->AwaitAndRelease(seqs[h]);
  return static_cast<int>(helpers.size()) + 1;
}

std::size_t PoolHelpers() { return ThePool().size(); }

}  // namespace exec_detail
}  // namespace pivotscale
