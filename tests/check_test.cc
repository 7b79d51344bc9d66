// util/check.h tests: CHECK aborts with a file:line diagnostic and the
// operand echo, DCHECK is compiled out under NDEBUG (the default Release
// configuration), and the real invariants the layer guards — corrupt CSR
// offsets and out-of-range DAG neighbors — die fast instead of corrupting
// counts downstream. The start-up CPU check exits 1 naming POPCNT when told
// the CPU lacks it.
#include "util/check.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <vector>

#include "graph/dag.h"
#include "graph/graph.h"

namespace pivotscale {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  CHECK(true);
  CHECK(1 + 1 == 2) << "never printed";
  CHECK_EQ(4, 4);
  CHECK_NE(4, 5);
  CHECK_LT(4, 5);
  CHECK_LE(5, 5);
  CHECK_GT(5, 4);
  CHECK_GE(5, 5);
}

TEST(CheckTest, MixedSignComparisonsAreValueCorrect) {
  // Plain `-1 < 1u` is false under integer promotion; the CHECK layer must
  // compare values, not bit patterns (std::cmp_*).
  CHECK_LT(-1, 1u);
  CHECK_GT(1u, -1);
  CHECK_GE(std::uint64_t{0}, -5);
  CHECK_NE(std::uint32_t{0xFFFFFFFFu}, -1);
}

TEST(CheckDeathTest, FailureReportsFileLineAndMessage) {
  // The diagnostic must carry file:line (clickable, greppable) plus the
  // failed condition and any streamed context.
  EXPECT_DEATH(CHECK(2 + 2 == 5) << "math context " << 42,
               "check_test\\.cc:[0-9]+: CHECK failed: "
               "2 \\+ 2 == 5 math context 42");
}

TEST(CheckDeathTest, ComparisonEchoesBothOperands) {
  const int lhs = 4;
  const int rhs = 5;
  EXPECT_DEATH(CHECK_EQ(lhs, rhs), "CHECK failed: lhs == rhs \\(4 vs\\. 5\\)");
  EXPECT_DEATH(CHECK_GE(lhs, rhs), "CHECK failed: lhs >= rhs \\(4 vs\\. 5\\)");
}

TEST(CheckDeathTest, FailureAbortsWithSigabrt) {
  // Exit-code contract: CHECK terminates via abort(), so supervisors and
  // CI see an abnormal SIGABRT death, never a zero exit with bad counts.
  EXPECT_EXIT(CHECK(false), ::testing::KilledBySignal(SIGABRT),
              "CHECK failed: false");
}

TEST(CheckDeathTest, OperandsEvaluateExactlyOnce) {
  int evaluations = 0;
  const auto bump = [&evaluations] { return ++evaluations; };
  CHECK_GE(bump(), 1);
  EXPECT_EQ(evaluations, 1);
}

TEST(CpuCheckDeathTest, MissingPopcntExitsWithAMessage) {
#if defined(__x86_64__)
  EXPECT_EXIT(ExitIfCpuLacksPopcnt(false), ::testing::ExitedWithCode(1),
              "POPCNT");
#else
  ExitIfCpuLacksPopcnt(false);  // no popcount instruction to lack
#endif
}

TEST(CpuCheckTest, PresentPopcntReturns) { ExitIfCpuLacksPopcnt(true); }

#if PIVOTSCALE_DCHECK_ENABLED

TEST(DcheckDeathTest, EnabledDchecksAreFatal) {
  EXPECT_DEATH(DCHECK(false), "CHECK failed: false");
  EXPECT_DEATH(DCHECK_LT(5, 4), "CHECK failed: 5 < 4");
}

#else  // NDEBUG without PIVOTSCALE_DCHECK_ALWAYS_ON

TEST(DcheckTest, CompiledOutDchecksNeverEvaluateOperands) {
  // Release hot loops pay nothing: the operand expression must not run.
  int evaluations = 0;
  const auto bump = [&evaluations] { return ++evaluations; };
  DCHECK(bump() > 0);
  DCHECK_EQ(bump(), 1);
  DCHECK_LT(bump(), 0);  // would fail if evaluated
  EXPECT_EQ(evaluations, 0);
}

TEST(DcheckTest, CompiledOutDchecksSwallowStreamedMessages) {
  int evaluations = 0;
  const auto bump = [&evaluations] { return ++evaluations; };
  DCHECK(false) << "never formatted " << bump();
  EXPECT_EQ(evaluations, 0);
}

#endif  // PIVOTSCALE_DCHECK_ENABLED

// ------------------------------------------------- guarded real invariants

// Death tests that re-enter OpenMP regions must re-exec instead of fork:
// a forked child of a process that already spawned a team can wedge inside
// libgomp before reaching the expected abort.
class SeededCorruptionDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(SeededCorruptionDeathTest, CorruptOffsetsDieFastInGraphCtor) {
  // Decreasing offsets — the "corrupt .psx offset" shape — seeded directly
  // past the file readers' validation, as if an in-memory producer broke
  // the CSR contract. The Graph constructor must refuse to hand this to
  // the counting kernels.
  std::vector<EdgeId> offsets = {0, 2, 1};
  std::vector<NodeId> neighbors = {1};
  EXPECT_DEATH(Graph(std::move(offsets), std::move(neighbors),
                     /*undirected=*/true),
               "graph\\.cc:[0-9]+: CHECK failed:.*corrupt CSR offsets");
}

TEST_F(SeededCorruptionDeathTest, OutOfRangeDagNeighborDiesInDirectionalize) {
  // Vertex 1's adjacency claims neighbor 7 in a 3-vertex graph. Without
  // the CHECK, Directionalize would index ranks[7] out of bounds and
  // silently mis-direct edges — corrupted counts, no diagnostic.
  std::vector<EdgeId> offsets = {0, 1, 2, 2};
  std::vector<NodeId> neighbors = {1, 7};
  const Graph g(std::move(offsets), std::move(neighbors),
                /*undirected=*/true);
  const std::vector<NodeId> ranks = {0, 1, 2};
  EXPECT_DEATH(Directionalize(g, ranks),
               "dag\\.cc:[0-9]+: CHECK failed:.*outside the graph");
}

}  // namespace
}  // namespace pivotscale
