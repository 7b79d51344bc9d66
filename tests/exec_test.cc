// Unit tests for the unified execution layer (src/exec/) and the shared
// --threads flag validation (util/cli.h):
//   * ThreadBudget lease accounting: grant rules, min-1 progress, release,
//     and the default capacity read from OMP_NUM_THREADS
//   * BuildChunkBounds invariants in uniform and cost-weighted modes
//   * ParallelFor / ParallelReduce / ParallelForWorkers correctness and
//     realized-team-sized ExecStats, worker slots on cache lines of
//     their own, and worker 0 on the calling thread
//   * exec.* telemetry emitted by a region
//   * ArgParser::GetThreads rejecting 0 / negative / absurd values,
//     ArgParser::GetK rejecting k outside [1, 2^32 - 1], and
//     ArgParser::GetIntInRange rejecting serving flags that would wrap
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/thread_budget.h"
#include "util/cli.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

// ------------------------------------------------------------ ThreadBudget

TEST(ThreadBudget, GrantsUpToCapacityAndReleasesOnDestruction) {
  ThreadBudget budget(4);
  EXPECT_EQ(budget.capacity(), 4);
  EXPECT_EQ(budget.in_use(), 0);
  {
    ThreadLease lease = budget.Acquire(3);
    EXPECT_EQ(lease.threads(), 3);
    EXPECT_EQ(budget.in_use(), 3);
  }
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(ThreadBudget, RequestZeroMeansEverythingFree) {
  ThreadBudget budget(4);
  ThreadLease first = budget.Acquire(1);
  ThreadLease rest = budget.Acquire(0);
  EXPECT_EQ(rest.threads(), 3);
  EXPECT_EQ(budget.in_use(), 4);
}

TEST(ThreadBudget, AbsurdRequestIsCappedAtCapacity) {
  ThreadBudget budget(2);
  ThreadLease lease = budget.Acquire(1'000'000);
  EXPECT_EQ(lease.threads(), 2);
}

TEST(ThreadBudget, ExhaustedBudgetStillGrantsOneThread) {
  // The min-1 progress rule: a lease is never 0 threads, so a counting
  // run that arrives while the machine is fully leased still advances
  // (the busy total may exceed capacity by one per concurrent lease —
  // never multiplicatively).
  ThreadBudget budget(2);
  ThreadLease all = budget.Acquire(0);
  EXPECT_EQ(all.threads(), 2);
  ThreadLease extra = budget.Acquire(2);
  EXPECT_EQ(extra.threads(), 1);
  EXPECT_EQ(budget.in_use(), 3);
}

TEST(ThreadBudget, MoveTransfersTheGrant) {
  ThreadBudget budget(4);
  ThreadLease a = budget.Acquire(2);
  ThreadLease b = std::move(a);
  EXPECT_EQ(a.threads(), 0);
  EXPECT_EQ(b.threads(), 2);
  EXPECT_EQ(budget.in_use(), 2);
  b = ThreadLease();
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(ThreadBudget, SetCapacityAppliesToLaterLeases) {
  ThreadBudget budget(8);
  budget.SetCapacity(2);
  EXPECT_EQ(budget.capacity(), 2);
  ThreadLease lease = budget.Acquire(0);
  EXPECT_EQ(lease.threads(), 2);
}

TEST(ThreadBudget, GlobalCapacityIsPositive) {
  EXPECT_GE(ThreadBudget::Global().capacity(), 1);
}

TEST(ThreadBudget, DefaultCapacityReadsOmpNumThreads) {
  const char* env = std::getenv("OMP_NUM_THREADS");
  const std::string saved = env != nullptr ? env : "";
  ::unsetenv("OMP_NUM_THREADS");
  const int cpus = ThreadBudget().capacity();
  EXPECT_GE(cpus, 1);
  const std::vector<std::pair<std::string, int>> cases = {
      {"3", 3},    {" 5", 5},  {"6 ", 6},  {"2,1", 2},     {"4096", 4096},
      {"0", cpus}, {"-2", cpus}, {"4097", cpus}, {"two", cpus}, {"", cpus},
      {"3x", cpus}};
  for (const auto& [value, want] : cases) {
    ::setenv("OMP_NUM_THREADS", value.c_str(), 1);
    EXPECT_EQ(ThreadBudget().capacity(), want) << '"' << value << '"';
  }
  if (env != nullptr)
    ::setenv("OMP_NUM_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("OMP_NUM_THREADS");
}

// --------------------------------------------------------- chunk geometry

void ExpectValidBounds(const std::vector<std::size_t>& bounds,
                       std::size_t n) {
  ASSERT_GE(bounds.size(), 1u);
  EXPECT_EQ(bounds.front(), 0u);
  if (n == 0) {
    EXPECT_EQ(bounds.size(), 1u);  // zero chunks
    return;
  }
  EXPECT_EQ(bounds.back(), n);
  for (std::size_t c = 1; c < bounds.size(); ++c)
    EXPECT_LT(bounds[c - 1], bounds[c]) << "chunk " << c;
}

TEST(ChunkBounds, UniformModeCoversRangeExactly) {
  ExecOptions options;
  options.chunks_per_worker = 4;
  const auto bounds = exec_detail::BuildChunkBounds(100, 2, options);
  ExpectValidBounds(bounds, 100);
  EXPECT_GE(bounds.size() - 1, 2u);   // more than one chunk for 100 items
  EXPECT_LE(bounds.size() - 1, 8u);   // at most team * chunks_per_worker
}

TEST(ChunkBounds, EmptyRangeYieldsZeroChunks) {
  ExecOptions options;
  const auto bounds = exec_detail::BuildChunkBounds(0, 4, options);
  ExpectValidBounds(bounds, 0);
}

TEST(ChunkBounds, GrainIsAFloorOnChunkSize) {
  ExecOptions options;
  options.grain = 25;
  options.chunks_per_worker = 16;
  const auto bounds = exec_detail::BuildChunkBounds(100, 4, options);
  ExpectValidBounds(bounds, 100);
  for (std::size_t c = 1; c < bounds.size(); ++c)
    EXPECT_GE(bounds[c] - bounds[c - 1], 25u) << "chunk " << c;
}

TEST(ChunkBounds, CostWeightedCutsEqualizeEstimatedWork) {
  // Item 0 carries ~as much estimated work as the rest combined: the
  // first cut must come right after it instead of waiting for n/chunks
  // items.
  ExecOptions options;
  options.chunks_per_worker = 2;
  options.cost = [](std::size_t i) { return i == 0 ? 1000.0 : 1.0; };
  const auto bounds = exec_detail::BuildChunkBounds(1000, 2, options);
  ExpectValidBounds(bounds, 1000);
  ASSERT_GE(bounds.size(), 3u);
  EXPECT_LE(bounds[1], 10u) << "heavy head item should end its chunk early";
}

TEST(ChunkBounds, CostWeightedRespectsGrain) {
  ExecOptions options;
  options.grain = 10;
  options.chunks_per_worker = 64;
  options.cost = [](std::size_t) { return 1.0; };
  const auto bounds = exec_detail::BuildChunkBounds(200, 4, options);
  ExpectValidBounds(bounds, 200);
  // Every chunk but the last must honor the grain floor (the tail keeps
  // whatever is left).
  for (std::size_t c = 1; c + 1 < bounds.size(); ++c)
    EXPECT_GE(bounds[c] - bounds[c - 1], 10u) << "chunk " << c;
}

// ------------------------------------------------------- region semantics

TEST(Executor, ParallelForVisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 5000;
  std::vector<int> visits(kN, 0);
  ExecOptions options;
  options.num_threads = 2;
  const ExecStats stats =
      ParallelFor(kN, options, [&visits](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i], 1) << i;
  EXPECT_EQ(stats.tasks, kN);
  EXPECT_GE(stats.team, 1);
}

TEST(Executor, ParallelReduceMatchesClosedForm) {
  constexpr std::size_t kN = 4097;
  ExecOptions options;
  options.num_threads = 2;
  const std::uint64_t total = ParallelReduce(
      kN, options, std::uint64_t{0},
      [](std::uint64_t& acc, std::size_t i) { acc += i; },
      [](std::uint64_t& into, std::uint64_t from) { into += from; });
  EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST(Executor, StatsAreSizedToRealizedTeam) {
  ExecOptions options;
  options.num_threads = 2;
  const ExecStats stats = ParallelFor(1000, options, [](std::size_t) {});
  ASSERT_GE(stats.team, 1);
  EXPECT_EQ(stats.worker_busy_seconds.size(),
            static_cast<std::size_t>(stats.team));
  EXPECT_EQ(stats.worker_chunks.size(),
            static_cast<std::size_t>(stats.team));
  const std::uint64_t chunks_run = std::accumulate(
      stats.worker_chunks.begin(), stats.worker_chunks.end(),
      std::uint64_t{0});
  EXPECT_EQ(chunks_run, stats.chunks);
  EXPECT_GT(stats.chunks, 0u);
}

TEST(Executor, EveryRealizedWorkerIsMergedOnce) {
  ExecOptions options;
  options.num_threads = 2;
  // Workers are constructed inside the region, one per tid, possibly at
  // the same instant.
  std::atomic<int> built{0};
  int merged = 0;
  ParallelForWorkers(
      100, options,
      [&built](int) {
        built.fetch_add(1);
        return 0;
      },
      [](int& acc, std::size_t) { ++acc; },
      [&merged](int& acc) {
        ++merged;
        EXPECT_GE(acc, 0);
      });
  EXPECT_EQ(merged, built.load());
  EXPECT_GE(built.load(), 1);
}

TEST(Executor, WorkerSlotsDoNotShareCacheLines) {
  // Small accumulators written on every item, as SelectOrdering's argmax
  // does: two of them on one cache line would bounce it between cores.
  struct Acc {
    int tid;
    std::uint64_t best;
  };
  ThreadBudget& budget = ThreadBudget::Global();
  const int saved = budget.capacity();
  budget.SetCapacity(4);
  ExecOptions options;
  options.num_threads = 4;
  std::vector<std::uintptr_t> seen(4, 0);
  const ExecStats stats = ParallelForWorkers(
      256, options, [](int tid) { return Acc{tid, 0}; },
      [&seen](Acc& acc, std::size_t i) {
        // Slow enough that every worker takes a chunk before they run out.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        acc.best = std::max<std::uint64_t>(acc.best, i);
        seen[acc.tid] = reinterpret_cast<std::uintptr_t>(&acc);
      },
      [](Acc&) {});
  budget.SetCapacity(saved);
  int recorded = 0;
  for (std::size_t a = 0; a < seen.size(); ++a) {
    if (seen[a] == 0) continue;
    ++recorded;
    for (std::size_t b = a + 1; b < seen.size(); ++b) {
      if (seen[b] == 0) continue;
      const std::uintptr_t gap =
          seen[a] > seen[b] ? seen[a] - seen[b] : seen[b] - seen[a];
      EXPECT_GE(gap, 64u) << "workers " << a << " and " << b;
    }
  }
  EXPECT_GE(recorded, std::min(stats.team, 2));
}

TEST(Executor, WorkerZeroIsTheCallingThread) {
  // Worker 0's state is built on the caller, so its allocations stay in
  // the caller's malloc arena; the other workers run on pool helpers.
  ThreadBudget& budget = ThreadBudget::Global();
  const int saved = budget.capacity();
  budget.SetCapacity(4);
  ExecOptions options;
  options.num_threads = 4;
  std::vector<std::thread::id> built_on(4);
  const ExecStats stats = ParallelForWorkers(
      64, options,
      [&built_on](int tid) {
        built_on[tid] = std::this_thread::get_id();
        return 0;
      },
      [](int&, std::size_t) {}, [](int&) {});
  budget.SetCapacity(saved);
  EXPECT_EQ(built_on[0], std::this_thread::get_id());
  for (int tid = 1; tid < stats.team; ++tid)
    EXPECT_NE(built_on[tid], std::this_thread::get_id()) << tid;
}

TEST(Executor, EmptyRangeStillMergesWorkers) {
  ExecOptions options;
  int merged = 0;
  const ExecStats stats = ParallelForWorkers(
      0, options, [](int) { return 0; }, [](int&, std::size_t) {},
      [&merged](int&) { ++merged; });
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_GE(merged, 1);
}

TEST(Executor, RegionRecordsExecTelemetry) {
  TelemetryRegistry telemetry;
  ExecOptions options;
  options.num_threads = 2;
  options.telemetry = &telemetry;
  ParallelFor(500, options, [](std::size_t) {});
  EXPECT_EQ(telemetry.Counter("exec.regions"), 1u);
  EXPECT_EQ(telemetry.Counter("exec.tasks"), 500u);
  EXPECT_GT(telemetry.Counter("exec.chunks"), 0u);
  const std::vector<double> busy =
      telemetry.Series("exec.worker_busy_seconds");
  EXPECT_EQ(busy.size(), static_cast<std::size_t>(telemetry.Gauge("exec.team")));
  EXPECT_TRUE(telemetry.HasSpan("exec.region_wall"));
}

// --------------------------------------------------- --threads validation

ArgParser ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ThreadsFlag, AbsentFallsBackToDefault) {
  EXPECT_EQ(ParseArgs({"bin"}).GetThreads(), 0);
  EXPECT_EQ(ParseArgs({"bin"}).GetThreads("workers", 2), 2);
}

TEST(ThreadsFlag, ExplicitValueInRangeIsAccepted) {
  EXPECT_EQ(ParseArgs({"bin", "--threads", "3"}).GetThreads(), 3);
  EXPECT_EQ(ParseArgs({"bin", "--threads=1"}).GetThreads(), 1);
  EXPECT_EQ(ParseArgs({"bin", "--threads", "4096"}).GetThreads(), 4096);
  EXPECT_EQ(ParseArgs({"bin", "--workers=8"}).GetThreads("workers", 2), 8);
}

TEST(ThreadsFlag, ZeroNegativeAndAbsurdAreRejected) {
  EXPECT_THROW(ParseArgs({"bin", "--threads", "0"}).GetThreads(),
               std::runtime_error);
  EXPECT_THROW(ParseArgs({"bin", "--threads=-3"}).GetThreads(),
               std::runtime_error);
  EXPECT_THROW(ParseArgs({"bin", "--threads", "4097"}).GetThreads(),
               std::runtime_error);
  EXPECT_THROW(ParseArgs({"bin", "--threads", "100000"}).GetThreads(),
               std::runtime_error);
  EXPECT_THROW(ParseArgs({"bin", "--workers=0"}).GetThreads("workers", 2),
               std::runtime_error);
}

TEST(ThreadsFlag, UnparseableValueIsRejected) {
  EXPECT_THROW(ParseArgs({"bin", "--threads", "two"}).GetThreads(),
               std::runtime_error);
}

// ------------------------------------------------------ --k validation

TEST(KFlag, AbsentFallsBackToDefaultAndRangeEndsAreAccepted) {
  EXPECT_EQ(ParseArgs({"bin"}).GetK(8), 8u);
  EXPECT_EQ(ParseArgs({"bin", "--k", "1"}).GetK(8), 1u);
  EXPECT_EQ(ParseArgs({"bin", "--k=12"}).GetK(8), 12u);
  EXPECT_EQ(ParseArgs({"bin", "--k", "4294967295"}).GetK(8), 4294967295u);
}

TEST(KFlag, ValuesThatWouldWrapAreRejected) {
  // Regression: "--k 4294967299" used to count 3-cliques and "--k -5"
  // 4294967291-cliques, through a cast to std::uint32_t.
  for (const char* bad : {"0", "-5", "4294967296", "4294967299"}) {
    try {
      ParseArgs({"bin", "--k", bad}).GetK(8);
      ADD_FAILURE() << "accepted --k " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("bad --k: ", 0), 0u) << e.what();
    }
  }
  EXPECT_THROW(ParseArgs({"bin", "--k", "four"}).GetK(8), std::runtime_error);
}

// ------------------------------------------ range-checked integer flags

TEST(IntRangeFlag, AbsentFallsBackToDefaultAndRangeEndsAreAccepted) {
  EXPECT_EQ(ParseArgs({"bin"}).GetIntInRange("port", 7070, 0, 65535), 7070);
  EXPECT_EQ(ParseArgs({"bin", "--port", "0"}).GetIntInRange("port", 1, 0,
                                                            65535),
            0);
  EXPECT_EQ(ParseArgs({"bin", "--port=65535"}).GetIntInRange("port", 0, 0,
                                                             65535),
            65535);
  EXPECT_EQ(ParseArgs({"bin", "--cache-bytes", "0"})
                .GetIntInRange("cache-bytes", 1 << 30, 0),
            0);
  EXPECT_EQ(ParseArgs({"bin", "--queue-depth", "9223372036854775807"})
                .GetIntInRange("queue-depth", 64, 1),
            std::numeric_limits<std::int64_t>::max());
}

TEST(IntRangeFlag, ValuesThatWouldWrapAreRejected) {
  // Regression: "--port 65616" listened on port 80 and "--queue-depth -1"
  // became an unbounded queue, through casts to unsigned types.
  const auto expect_bad = [](std::vector<std::string> argv,
                             const std::string& name, std::int64_t lo,
                             std::int64_t hi, const std::string& message) {
    try {
      ParseArgs(argv).GetIntInRange(name, 1, lo, hi);
      ADD_FAILURE() << "accepted " << argv[1] << " " << argv[2];
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  };
  expect_bad({"bin", "--port", "65616"}, "port", 0, 65535,
             "bad --port: 65616 (must be between 0 and 65535)");
  expect_bad({"bin", "--port", "-1"}, "port", 0, 65535,
             "bad --port: -1 (must be between 0 and 65535)");
  const std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();
  expect_bad({"bin", "--queue-depth", "-1"}, "queue-depth", 1, kNoMax,
             "bad --queue-depth: -1 (must be at least 1)");
  expect_bad({"bin", "--max-line-bytes", "0"}, "max-line-bytes", 1, kNoMax,
             "bad --max-line-bytes: 0 (must be at least 1)");
  expect_bad({"bin", "--cache-bytes", "-5"}, "cache-bytes", 0, kNoMax,
             "bad --cache-bytes: -5 (must be at least 0)");
  EXPECT_THROW(ParseArgs({"bin", "--port", "http"})
                   .GetIntInRange("port", 0, 0, 65535),
               std::runtime_error);
}

// ------------------------------------------------ path flag validation

TEST(PathFlag, AbsentFallsBackToDefaultAndValueIsKept) {
  EXPECT_EQ(ParseArgs({"bin"}).GetPath("telemetry-json", ""), "");
  EXPECT_EQ(ParseArgs({"bin"}).GetPath("out", "graph.psx"), "graph.psx");
  EXPECT_EQ(ParseArgs({"bin", "--telemetry-json=r.json"})
                .GetPath("telemetry-json", ""),
            "r.json");
  EXPECT_EQ(ParseArgs({"bin", "--out", "a.psx"}).GetPath("out", "graph.psx"),
            "a.psx");
}

TEST(PathFlag, EmptyOrMissingValueIsRejected) {
  // Regression: "--telemetry-json=" used to read as "no report" and
  // silently skip writing it.
  EXPECT_THROW(ParseArgs({"bin", "--telemetry-json="})
                   .GetPath("telemetry-json", ""),
               std::runtime_error);
  EXPECT_THROW(ParseArgs({"bin", "--telemetry-json", "--k", "4"})
                   .GetPath("telemetry-json", ""),
               std::runtime_error);
  EXPECT_THROW(ParseArgs({"bin", "--out"}).GetPath("out", "graph.psx"),
               std::runtime_error);
  // A repeated flag: the last occurrence decides.
  EXPECT_EQ(ParseArgs({"bin", "--out", "--out=b.psx"})
                .GetPath("out", "graph.psx"),
            "b.psx");
}

}  // namespace
}  // namespace pivotscale
