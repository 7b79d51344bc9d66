// Deterministic concurrency stress tests, written to run under
// ThreadSanitizer (cmake -DPIVOTSCALE_TSAN=ON). Each test hammers one of
// the shared-state surfaces from many threads with exact, deterministic
// expected totals, so a data race shows up either as a TSan report or as
// a wrong count:
//   * TelemetryRegistry counters/gauges/spans under concurrent mutation
//   * QueryEngine LRU cache eviction under mixed-k batches on a byte
//     budget too small for the working set
//   * WorkerPool admission-queue shed/drain accounting
//   * concurrent executor counting runs (per-thread subgraph pools)
//   * executor reduction slots + chunk cursor + thread-capacity ledger
//     under concurrent ParallelReduce runs
//   * the exec layer's helper pool: many tiny regions from several
//     threads at once, one of them nested; one caller's back-to-back
//     regions and two callers' overlapping ones, each of which must get
//     its full grant; and waits that outlast the spin and park
//   * concurrent graph builds (shared scatter buffer, per-chunk cursor
//     rows, per-bucket row cursors)
//   * concurrent prefix sums (per-block totals between two regions)
//   * concurrent Rmat calls (per-chunk generator states set before the
//     region)
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "net/worker_pool.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "pivot/pivotscale.h"
#include "service/query_engine.h"
#include "store/artifact.h"
#include "test_helpers.h"
#include "util/prefix_sum.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Small but clique-rich: TSan runs everything serialized-ish and ~5-15x
// slower, so the stress graphs stay an order of magnitude smaller than
// the functional-test ones.
Graph SmallCliqueGraph(std::uint64_t seed) {
  EdgeList edges = Rmat(7, 4.0, seed);
  PlantCliques(&edges, 128, 4, 4, 6, seed + 1);
  return BuildGraph(std::move(edges));
}

void JoinAll(std::vector<std::thread>& threads) {
  for (std::thread& t : threads) t.join();
}

// --------------------------------------------------------------- telemetry

TEST(RaceTest, TelemetryCountersAccumulateExactlyUnderContention) {
  TelemetryRegistry telemetry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncrementsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry, t] {
      for (std::uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        telemetry.AddCounter("race.shared_total", 1);
        telemetry.AddCounter("race.thread_" + std::to_string(t), 1);
        if ((i & 255) == 0) {
          telemetry.SetGauge("race.last_writer", static_cast<double>(t));
          telemetry.RecordSpan("race.tick", 1e-9);
        }
      }
    });
  }
  JoinAll(threads);

  EXPECT_EQ(telemetry.Counter("race.shared_total"),
            kThreads * kIncrementsPerThread);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(telemetry.Counter("race.thread_" + std::to_string(t)),
              kIncrementsPerThread);
  EXPECT_TRUE(telemetry.HasSpan("race.tick"));
  // Snapshot while another round of writers mutates: must be internally
  // consistent, not torn.
  std::vector<std::thread> writers;
  std::atomic<bool> stop{false};
  writers.emplace_back([&telemetry, &stop] {
    while (!stop.load(std::memory_order_relaxed))
      telemetry.AddCounter("race.background", 1);
  });
  for (int i = 0; i < 50; ++i) {
    const TelemetrySnapshot snap = telemetry.Snapshot();
    EXPECT_EQ(snap.counters.at("race.shared_total"),
              kThreads * kIncrementsPerThread);
  }
  stop.store(true, std::memory_order_relaxed);
  JoinAll(writers);
}

// ----------------------------------------------------- query-engine cache

class EngineRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int a = 0; a < kArtifacts; ++a) {
      graphs_.push_back(SmallCliqueGraph(100 + a));
      files_.push_back(std::make_unique<TempFile>(
          "race_engine_" + std::to_string(a) + ".psx"));
      WriteArtifact(files_[a]->path(), BuildArtifact(graphs_[a]));
      for (std::uint32_t k = 2; k <= kMaxK; ++k)
        expected_[a][k] = CountKCliquesSimple(graphs_[a], k);
    }
  }

  static constexpr int kArtifacts = 3;
  static constexpr std::uint32_t kMaxK = 5;
  std::vector<Graph> graphs_;
  std::vector<std::unique_ptr<TempFile>> files_;
  std::map<int, std::map<std::uint32_t, BigCount>> expected_;
};

TEST_F(EngineRaceTest, MixedKBatchesUnderEvictionPressureStayCorrect) {
  // A budget one artifact can satisfy but three cannot: every rotation to
  // a different artifact forces the load + evict path while other threads
  // are mid-batch on the entry being evicted (shared_ptr keeps it alive).
  TelemetryRegistry telemetry;
  QueryEngineOptions options;
  options.cache_byte_budget = BuildArtifact(graphs_[0]).HeapBytes() + 1024;
  options.telemetry = &telemetry;
  QueryEngine engine(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &engine, &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the artifacts in a different phase, so the
        // cache constantly rotates entries in and out.
        const int a = (t + round) % kArtifacts;
        std::vector<ServiceQuery> batch;
        for (std::uint32_t k = 2; k <= kMaxK; ++k) {
          ServiceQuery q;
          q.graph = files_[a]->path();
          q.k = k;
          batch.push_back(q);
        }
        ServiceQuery all;
        all.graph = files_[a]->path();
        all.all_k = true;
        all.k = kMaxK;
        batch.push_back(all);
        const std::vector<ServiceResult> results = engine.RunBatch(batch);
        if (results.size() != batch.size()) {
          mismatches.fetch_add(100);
          continue;
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok ||
              results[i].total != expected_[a][batch[i].k])
            mismatches.fetch_add(1);
        }
      }
    });
  }
  JoinAll(threads);

  EXPECT_EQ(mismatches.load(), 0);
  // The budget fits one artifact, three rotate through: evictions must
  // have happened, and the resident set must respect the budget shape.
  EXPECT_GT(telemetry.Counter("service.evictions"), 0u);
  EXPECT_LE(engine.CachedArtifacts(), 2u);
  EXPECT_EQ(telemetry.Counter("service.queries"),
            static_cast<std::uint64_t>(kThreads) * kRounds *
                (kMaxK - 2 + 1 + 1));
}

TEST_F(EngineRaceTest, ConcurrentBatchesOnOneArtifactShareMemo) {
  QueryEngine engine;  // default budget: everything stays resident
  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &engine, &mismatches, t] {
      const std::uint32_t k = 2 + static_cast<std::uint32_t>(t) % 4;
      ServiceQuery q;
      q.graph = files_[0]->path();
      q.k = k;
      const ServiceResult r = engine.RunQuery(q);
      if (!r.ok || r.total != expected_[0][k]) mismatches.fetch_add(1);
    });
  }
  JoinAll(threads);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.CachedArtifacts(), 1u);
}

// ------------------------------------------------------------ worker pool

TEST(RaceTest, WorkerPoolShedsAndDrainsWithExactAccounting) {
  TempFile artifact("race_pool.psx");
  const Graph g = SmallCliqueGraph(77);
  WriteArtifact(artifact.path(), BuildArtifact(g));
  const BigCount truth = CountKCliquesSimple(g, 4);

  QueryEngine engine;
  engine.Preload(artifact.path());

  std::mutex completions_mutex;
  std::uint64_t completed = 0;
  std::uint64_t bad_payloads = 0;
  WorkerPoolOptions pool_options;
  pool_options.queue_depth = 2;  // tiny: force the shed path constantly
  pool_options.workers = 2;
  auto pool = std::make_unique<WorkerPool>(
      &engine, pool_options,
      [&](std::uint64_t /*connection_id*/, std::string block) {
        std::lock_guard<std::mutex> lock(completions_mutex);
        ++completed;
        if (block.find("\"ok\":true") == std::string::npos) ++bad_payloads;
      });

  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 25;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        NetBatch batch;
        batch.connection_id =
            static_cast<std::uint64_t>(p) * kBatchesPerProducer + b;
        ProtocolRequest req;
        req.id = b;
        req.query.graph = artifact.path();
        req.query.k = 4;
        batch.requests.push_back(req);
        if (pool->TrySubmit(std::move(batch)))
          admitted.fetch_add(1);
        else
          shed.fetch_add(1);
      }
    });
  }
  JoinAll(producers);
  pool->Drain();  // every admitted batch must still complete

  EXPECT_EQ(admitted.load() + shed.load(),
            static_cast<std::uint64_t>(kProducers) * kBatchesPerProducer);
  {
    std::lock_guard<std::mutex> lock(completions_mutex);
    EXPECT_EQ(completed, admitted.load());
    EXPECT_EQ(bad_payloads, 0u);
  }
  EXPECT_LE(pool->queue_high_water(), pool_options.queue_depth);
  // Post-drain submissions must be refused, not enqueued into the void.
  NetBatch late;
  late.requests.emplace_back();
  EXPECT_FALSE(pool->TrySubmit(std::move(late)));
  pool.reset();
  (void)truth;
}

// ---------------------------------------------- executor reduction slots

TEST(RaceTest, ReductionSlotsAccumulateExactlyUnderContention) {
  // Per-worker reduction slots: each worker owns one slot, the merge
  // walks them serially after the region. Several std::threads run
  // reductions simultaneously so the slots, the atomic chunk cursor, and
  // the thread-capacity ledger all see contention — each reduction must
  // still produce the exact closed-form total, and TSan must see no
  // conflicting access.
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 8;
  constexpr std::size_t kN = 10'000;
  constexpr std::uint64_t kWant = kN * (kN - 1) / 2;  // sum of 0..kN-1

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mismatches, t] {
      for (int run = 0; run < kRunsPerThread; ++run) {
        ExecOptions options;
        options.num_threads = 2;
        // Vary the chunk geometry run to run, and alternate between
        // uniform and heavily skewed cost models, so every chunking mode
        // hits the cursor concurrently.
        options.chunks_per_worker = 1 + (t + run) % 7;
        if (run % 2 == 1)
          options.cost = [](std::size_t i) {
            return static_cast<double>(i);
          };
        const std::uint64_t total = ParallelReduce(
            kN, options, std::uint64_t{0},
            [](std::uint64_t& acc, std::size_t i) { acc += i; },
            [](std::uint64_t& into, std::uint64_t from) { into += from; });
        if (total != kWant) mismatches.fetch_add(1);
      }
    });
  }
  JoinAll(threads);
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------ exec helper pool

TEST(RaceTest, TinyRegionsFromManyThreadsVisitEveryItemOnce) {
  // Four std::threads open tiny regions back to back, so helpers are
  // claimed, posted, finished and released at the highest rate the pool
  // sees; on each thread one region opens another region inside every
  // item. Every item of every region must be visited exactly once (a
  // second visit would also be a write-write race), and no region may
  // realize a team larger than it asked for.
  const int saved = ThreadCapacity();
  SetThreadCapacity(4);

  constexpr int kThreads = 4;
  constexpr int kRegionsPerThread = 200;
  constexpr int kNestedRegion = 57;
  constexpr std::size_t kItems = 48;
  constexpr std::size_t kInnerItems = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mismatches, t] {
      for (int region = 0; region < kRegionsPerThread; ++region) {
        ExecOptions options;
        options.num_threads = 1 + (t + region) % 4;
        options.chunks_per_worker = 1 + region % 3;
        const bool nested = region == kNestedRegion;
        std::vector<int> visits(kItems, 0);
        std::vector<std::vector<int>> inner_visits(
            kItems, std::vector<int>(nested ? kInnerItems : 0, 0));
        std::vector<int> inner_teams(kItems, 0);
        const auto body = [&](std::size_t i) {
          ++visits[i];
          if (!nested) return;
          ExecOptions inner;
          inner.num_threads = 2;
          inner_teams[i] =
              ParallelFor(kInnerItems, inner,
                          [&](std::size_t j) { ++inner_visits[i][j]; })
                  .team;
        };
        const ExecStats stats = ParallelFor(kItems, options, body);
        if (stats.team < 1 || stats.team > options.num_threads ||
            stats.worker_busy_seconds.size() !=
                static_cast<std::size_t>(stats.team))
          mismatches.fetch_add(1);
        for (std::size_t i = 0; i < kItems; ++i) {
          if (visits[i] != 1) mismatches.fetch_add(1);
          if (nested && (inner_teams[i] < 1 || inner_teams[i] > 2))
            mismatches.fetch_add(1);
          for (int v : inner_visits[i])
            if (v != 1) mismatches.fetch_add(1);
        }
      }
    });
  }
  JoinAll(threads);
  SetThreadCapacity(saved);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(exec_detail::ThreadsInUse(), 0);
}

TEST(RaceTest, BackToBackRegionsOfOneCallerGetTheFullGrant) {
  // A region returns only once every helper it claimed is idle again, so
  // with no other region running, each of one caller's regions finds the
  // helpers of the last one free: every region realizes the whole grant.
  const int saved = ThreadCapacity();
  SetThreadCapacity(4);
  ExecOptions options;
  options.num_threads = 4;
  int short_teams = 0;
  std::uint64_t wrong_sums = 0;
  for (int region = 0; region < 500; ++region) {
    std::uint64_t sum = 0;
    const ExecStats stats = ParallelForWorkers(
        64, options, [](int) { return std::uint64_t{0}; },
        [](std::uint64_t& acc, std::size_t i) { acc += i; },
        [&sum](std::uint64_t& acc) { sum += acc; });
    if (stats.team != 4) ++short_teams;
    if (sum != 64 * 63 / 2) ++wrong_sums;
  }
  SetThreadCapacity(saved);
  EXPECT_EQ(short_teams, 0);
  EXPECT_EQ(wrong_sums, 0u);
}

TEST(RaceTest, OverlappingRegionsEachGetTheirGrant) {
  // Two callers open regions that overlap: worker 0 of each waits at a
  // barrier for the other's, so both hold their helpers at once. Each
  // asks for one helper more than the pool has, so together they need
  // more than twice what it holds. A region that finds too few idle
  // helpers starts new ones, so every region realizes its whole grant, as
  // two serving workers' concurrent counts must.
  const int saved = ThreadCapacity();
  const int team = static_cast<int>(exec_detail::PoolHelpers()) + 2;
  SetThreadCapacity(2 * team);
  constexpr int kRegions = 100;
  std::barrier both(2);
  std::atomic<int> short_teams{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&both, &short_teams, team] {
      ExecOptions options;
      options.num_threads = team;
      for (int region = 0; region < kRegions; ++region) {
        const ExecStats stats = ParallelForWorkers(
            64, options,
            [&both](int tid) {
              if (tid == 0) both.arrive_and_wait();
              return 0;
            },
            [](int&, std::size_t) {}, [](int&) {});
        if (stats.team != team) short_teams.fetch_add(1);
      }
    });
  }
  JoinAll(threads);
  SetThreadCapacity(saved);
  EXPECT_EQ(short_teams.load(), 0);
  EXPECT_EQ(exec_detail::ThreadsInUse(), 0);
}

TEST(RaceTest, WaitsPastTheSpinAreAllWoken) {
  // Two callers run 2-thread regions back to back, so they claim the same
  // few helpers in turn. In alternate regions the helper's job or the
  // caller's own work outlasts the 1 ms spin: the caller parks waiting
  // for its helper, or the idle helper parks waiting for its next job.
  // Every park must be woken, or the test hangs.
  const int saved = ThreadCapacity();
  SetThreadCapacity(4);
  constexpr int kRegions = 40;
  std::atomic<int> short_teams{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&short_teams, t] {
      ExecOptions options;
      options.num_threads = 2;
      for (int region = 0; region < kRegions; ++region) {
        const int sleeper = (t + region) % 2;
        const ExecStats stats = ParallelForWorkers(
            2, options,
            [sleeper](int tid) {
              if (tid == sleeper)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
              return 0;
            },
            [](int&, std::size_t) {}, [](int&) {});
        if (stats.team != 2) short_teams.fetch_add(1);
      }
    });
  }
  JoinAll(threads);
  SetThreadCapacity(saved);
  EXPECT_EQ(short_teams.load(), 0);
}

// ------------------------------------------------------ graph builder

TEST(RaceTest, ConcurrentGraphBuildsMatchSerialBuild) {
  // Every build runs its count, scatter and row passes on a team of its
  // own: workers share the scatter buffer and the row cursors in offsets,
  // each writing only the slots of its chunk's cursor row or its bucket.
  // Two std::threads build at once, so teams also contend for the
  // capacity; every graph must equal the one-thread build exactly.
  // 71,680 edges: two scatter chunks, each writing into all 1,024
  // one-vertex buckets.
  const EdgeList edges = Rmat(10, 140.0, 0.50, 0.22, 0.19, 0xb11d);
  const int saved = ThreadCapacity();
  SetThreadCapacity(1);
  const Graph want = BuildGraph(edges);
  SetThreadCapacity(4);

  constexpr int kThreads = 2;
  constexpr int kBuildsPerThread = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int run = 0; run < kBuildsPerThread; ++run) {
        const Graph got = BuildGraph(edges);
        if (got.offsets() != want.offsets() ||
            got.neighbor_array() != want.neighbor_array())
          mismatches.fetch_add(1);
      }
    });
  }
  JoinAll(threads);
  SetThreadCapacity(saved);
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------ generators

TEST(RaceTest, ConcurrentRmatMatchesSerial) {
  // Each call fills its own edge list from per-chunk generator copies;
  // the chunk start states are written before the region and only read
  // inside it. Four std::threads generate at once under one capacity, so
  // their teams contend for it; every list must equal the team-1 one.
  // 147,456 edges: three chunks, so two starts come from the jump matrix.
  const int saved = ThreadCapacity();
  SetThreadCapacity(1);
  const EdgeList want = Rmat(14, 18.0, 0.50, 0.22, 0.19, 0xf41e);
  SetThreadCapacity(4);

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      if (Rmat(14, 18.0, 0.50, 0.22, 0.19, 0xf41e) != want)
        mismatches.fetch_add(1);
    });
  }
  JoinAll(threads);
  SetThreadCapacity(saved);
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------ prefix sum

TEST(RaceTest, ConcurrentPrefixSumsMatchSerialScan) {
  // Each scan's first region writes one total per block, the caller scans
  // the totals, and the second region reads them to offset its blocks.
  // Four std::threads scan at once on one capacity, half of them in place,
  // so the teams contend for it; every scan must equal the serial one.
  constexpr std::size_t kN = 4 * kPrefixSumBlock + 5;
  std::vector<std::uint64_t> in(kN);
  for (std::size_t i = 0; i < kN; ++i) in[i] = (i * 7919) % 13;
  std::vector<std::uint64_t> want(kN);
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    want[i] = run;
    run += in[i];
  }
  const int saved = ThreadCapacity();
  SetThreadCapacity(4);

  constexpr int kThreads = 4;
  constexpr int kScansPerThread = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int scan = 0; scan < kScansPerThread; ++scan) {
        std::vector<std::uint64_t> out;
        if (t % 2 == 0) {
          if (ParallelPrefixSum(in, &out) != run) mismatches.fetch_add(1);
        } else {
          out = in;
          if (ParallelPrefixSum(out, &out) != run) mismatches.fetch_add(1);
        }
        if (out != want) mismatches.fetch_add(1);
      }
    });
  }
  JoinAll(threads);
  SetThreadCapacity(saved);
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------ executor counting runs

TEST(RaceTest, ConcurrentCountingRunsAgree) {
  // Two std::threads each running the executor-backed counting driver:
  // concurrent teams over the per-thread subgraph pools. Every run must
  // land on the brute-force count regardless of interleaving.
  const Graph g = SmallCliqueGraph(55);
  const Graph dag = testing_helpers::MakeDag(g, OrderingKind::kCore);
  constexpr std::uint32_t kK = 4;
  const std::uint64_t truth = testing_helpers::BruteForceCount(g, kK);

  constexpr int kThreads = 3;
  constexpr int kRunsPerThread = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dag, truth, t, &mismatches] {
      for (int run = 0; run < kRunsPerThread; ++run) {
        CountOptions options;
        options.k = kK;
        options.num_threads = 2;
        // Rotate the kernels so each pool type sees concurrent use.
        const SubgraphKind kind = testing_helpers::kAllSubgraphKinds
            [static_cast<std::size_t>(t + run) %
             std::size(testing_helpers::kAllSubgraphKinds)];
        const CountResult result = CountCliquesOn(dag, options, kind);
        if (result.total != BigCount{truth}) mismatches.fetch_add(1);
      }
    });
  }
  JoinAll(threads);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace pivotscale
