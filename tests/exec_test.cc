// Unit tests for the unified execution layer (src/exec/) and the shared
// --threads flag validation (util/cli.h):
//   * the grant rule through the exec API: request 0, the capacity cap,
//     min-1 progress, realized-team accounting, SetThreadCapacity, and
//     the default capacity read from OMP_NUM_THREADS
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
#include "util/cli.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

// ------------------------------------------------------------ grant rule

// Sets the thread capacity for one test and puts the old one back.
class ScopedCapacity {
 public:
  explicit ScopedCapacity(int capacity) : saved_(ThreadCapacity()) {
    SetThreadCapacity(capacity);
  }
  ~ScopedCapacity() { SetThreadCapacity(saved_); }

 private:
  int saved_;
};

// Runs a region of `team` requested threads on its own std::thread and
// holds it open until Release(), so the caller's regions see its team in
// use.
class HeldRegion {
 public:
  explicit HeldRegion(int team)
      : thread_([this, team] {
          ExecOptions options;
          options.num_threads = team;
          ParallelForWorkers(
              1, options,
              [this](int tid) {
                if (tid == 0) {
                  in_use_.store(exec_detail::ThreadsInUse());
                  held_.store(true);
                  held_.notify_all();
                  release_.wait(false);
                }
                return 0;
              },
              [](int&, std::size_t) {}, [](int&) {});
        }) {
    held_.wait(false);
  }
  ~HeldRegion() { Release(); }

  // Threads in use, seen inside the held region.
  int in_use() const { return in_use_.load(); }

  void Release() {
    release_.store(true);
    release_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> held_{false};
  std::atomic<bool> release_{false};
  std::atomic<int> in_use_{0};
  std::thread thread_;
};

// The team a region of `requested` threads realizes, and the threads in
// use seen from inside it.
std::pair<int, int> RegionTeamAndInUse(int requested) {
  ExecOptions options;
  options.num_threads = requested;
  std::atomic<int> in_use{0};
  const ExecStats stats = ParallelForWorkers(
      1, options,
      [&in_use](int tid) {
        if (tid == 0) in_use.store(exec_detail::ThreadsInUse());
        return 0;
      },
      [](int&, std::size_t) {}, [](int&) {});
  return {stats.team, in_use.load()};
}

TEST(GrantRule, DefaultCapacityIsTheEnvironments) {
  EXPECT_GE(ThreadCapacity(), 1);
  EXPECT_EQ(ThreadCapacity(), exec_detail::DefaultThreadCapacity());
  EXPECT_EQ(exec_detail::ThreadsInUse(), 0);
}

TEST(GrantRule, DefaultCapacityReadsOmpNumThreads) {
  const char* env = std::getenv("OMP_NUM_THREADS");
  const std::string saved = env != nullptr ? env : "";
  ::unsetenv("OMP_NUM_THREADS");
  const int cpus = exec_detail::DefaultThreadCapacity();
  EXPECT_GE(cpus, 1);
  const std::vector<std::pair<std::string, int>> cases = {
      {"3", 3},    {" 5", 5},  {"6 ", 6},  {"2,1", 2},     {"4096", 4096},
      {"0", cpus}, {"-2", cpus}, {"4097", cpus}, {"two", cpus}, {"", cpus},
      {"3x", cpus}};
  for (const auto& [value, want] : cases) {
    ::setenv("OMP_NUM_THREADS", value.c_str(), 1);
    EXPECT_EQ(exec_detail::DefaultThreadCapacity(), want)
        << '"' << value << '"';
  }
  if (env != nullptr)
    ::setenv("OMP_NUM_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("OMP_NUM_THREADS");
}

TEST(GrantRule, RequestZeroGetsEveryFreeThread) {
  ScopedCapacity capacity(4);
  EXPECT_EQ(RegionTeamAndInUse(0), std::make_pair(4, 4));
  HeldRegion other(1);
  EXPECT_EQ(other.in_use(), 1);
  EXPECT_EQ(RegionTeamAndInUse(0), std::make_pair(3, 4));
  other.Release();
  EXPECT_EQ(exec_detail::ThreadsInUse(), 0);
}

TEST(GrantRule, RequestsAreCappedAtCapacity) {
  ScopedCapacity capacity(2);
  EXPECT_EQ(RegionTeamAndInUse(1'000'000), std::make_pair(2, 2));
  EXPECT_EQ(RegionTeamAndInUse(kMaxThreadsFlag), std::make_pair(2, 2));
}

TEST(GrantRule, ExhaustedCapacityStillRunsTheCaller) {
  // Min-1 progress: a region that arrives while the whole capacity is in
  // use neither blocks nor runs with 0 threads, so threads in use exceed
  // the capacity by one per such region, never multiplicatively.
  ScopedCapacity capacity(2);
  HeldRegion all(0);
  EXPECT_EQ(all.in_use(), 2);
  EXPECT_EQ(RegionTeamAndInUse(2), std::make_pair(1, 3));
  EXPECT_EQ(RegionTeamAndInUse(0), std::make_pair(1, 3));
  all.Release();
  EXPECT_EQ(exec_detail::ThreadsInUse(), 0);
}

TEST(GrantRule, RegionThatFindsNoIdleHelperHoldsOne) {
  // The outer region claims every helper the pool has, and the capacity
  // keeps more threads free. A region nested in it starts no helpers and
  // finds none idle, so it runs on its caller alone and holds exactly
  // that one thread, not the four it was granted.
  const int outer_team = static_cast<int>(exec_detail::PoolHelpers()) + 1;
  ScopedCapacity capacity(outer_team + 8);
  ExecOptions outer;
  outer.num_threads = outer_team;
  std::pair<int, int> inner{0, 0};
  const ExecStats stats = ParallelForWorkers(
      1, outer,
      [&inner](int tid) {
        if (tid == 0) inner = RegionTeamAndInUse(4);
        return 0;
      },
      [](int&, std::size_t) {}, [](int&) {});
  EXPECT_EQ(stats.team, outer_team);
  EXPECT_EQ(inner, std::make_pair(1, outer_team + 1));
  EXPECT_EQ(exec_detail::ThreadsInUse(), 0);
}

TEST(GrantRule, SetThreadCapacityAppliesToLaterRegions) {
  ScopedCapacity capacity(2);
  EXPECT_EQ(ThreadCapacity(), 2);
  EXPECT_EQ(RegionTeamAndInUse(0).first, 2);
  SetThreadCapacity(3);
  EXPECT_EQ(ThreadCapacity(), 3);
  EXPECT_EQ(RegionTeamAndInUse(0).first, 3);
  EXPECT_EQ(RegionTeamAndInUse(4).first, 3);
}

TEST(GrantRule, UnrunTeamGivesItsThreadsBack) {
  ScopedCapacity capacity(3);
  {
    exec_detail::Team team(0);
    EXPECT_EQ(team.size(), 3);
    EXPECT_EQ(exec_detail::ThreadsInUse(), 3);
  }
  EXPECT_EQ(exec_detail::ThreadsInUse(), 0);
  EXPECT_EQ(RegionTeamAndInUse(0).first, 3);
}

TEST(GrantRuleDeathTest, SetThreadCapacityRejectsZero) {
  EXPECT_DEATH(SetThreadCapacity(0), "thread capacity must be positive");
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
  ScopedCapacity capacity(4);
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
  ScopedCapacity capacity(4);
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
