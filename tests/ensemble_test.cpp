// Tests for the one replica fan-out: core::parallelForIndex (claim order,
// inline execution, first-error rethrow after join, skipped unclaimed
// indices) and sim::run's replicas over it for the paper's chain M —
// replica order, per-seed determinism independent of the thread count,
// identity with a directly driven CompressionEngine, checkpoint sampling
// and early stopping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/ensemble.hpp"
#include "core/scenario_models.hpp"
#include "sim/runner.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

// -- parallelForIndex ---------------------------------------------------------

TEST(ParallelForIndex, OneWorkerOrOneIndexRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallelForIndex(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  int calls = 0;
  parallelForIndex(1, 4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  parallelForIndex(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForIndex, InlineErrorSkipsTheRemainingIndices) {
  std::vector<std::size_t> ran;
  try {
    parallelForIndex(10, 1, [&ran](std::size_t i) {
      if (i == 3) throw std::runtime_error("index 3");
      ran.push_back(i);
    });
    FAIL() << "the error was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelForIndex, FirstErrorRethrownAfterJoinAndUnclaimedSkipped) {
  // Index 0 is claimed first and throws; every other index waits until it
  // has thrown and then takes a millisecond, so the sibling worker can
  // claim at most a handful before the drain — a pool that kept claiming
  // would run all of them.  Every invocation that started must have
  // finished before the error reaches the caller (rethrow after join).
  constexpr std::size_t kCount = 1000;
  std::atomic<bool> thrown{false};
  std::atomic<int> inFlight{0};
  std::atomic<std::size_t> ran{0};
  try {
    parallelForIndex(kCount, 2, [&](std::size_t i) {
      ++inFlight;
      if (i == 0) {
        thrown = true;
        --inFlight;
        throw std::runtime_error("index 0");
      }
      while (!thrown) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
      --inFlight;
    });
    FAIL() << "the error was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 0");
    EXPECT_EQ(inFlight.load(), 0);
  }
  EXPECT_LT(ran.load(), kCount - 1);
}

// -- sim::run replicas of chain M over the fan-out ---------------------------

sim::RunSpec compressionReplicas(std::uint32_t replicas, std::uint64_t steps,
                                 unsigned threads) {
  sim::RunSpec spec = sim::RunSpec::parse(
      "scenario=compression n=20 seed=1 seed-stride=7 lambda=4.0");
  spec.replicas = replicas;
  spec.steps = steps;
  spec.threads = threads;
  return spec;
}

TEST(Ensemble, ResultsComeBackInSpecOrderWithLabels) {
  const sim::RunSpec spec = compressionReplicas(3, 1000, 3);
  const sim::RunReport report = sim::run(spec);
  ASSERT_EQ(report.replicas.size(), 3u);
  for (std::size_t r = 0; r < report.replicas.size(); ++r) {
    const sim::ReplicaSummary& summary = report.replicas[r];
    EXPECT_EQ(summary.replica, r);
    EXPECT_EQ(summary.seed, 1u + 7u * r);
    EXPECT_EQ(summary.label,
              "compression seed=" + std::to_string(summary.seed));
    EXPECT_EQ(summary.steps, 1000u);
  }
}

TEST(Ensemble, DeterministicAcrossThreadCounts) {
  sim::MemorySink serial;
  sim::MemorySink parallel4;
  sim::MemorySink parallel8;
  (void)sim::run(compressionReplicas(6, 20000, 1), serial);
  (void)sim::run(compressionReplicas(6, 20000, 4), parallel4);
  (void)sim::run(compressionReplicas(6, 20000, 8), parallel8);
  ASSERT_EQ(serial.summaries().size(), 6u);
  ASSERT_EQ(parallel4.summaries().size(), 6u);
  ASSERT_EQ(parallel8.summaries().size(), 6u);
  for (std::size_t r = 0; r < 6; ++r) {
    const auto& a = serial.summaries()[r];
    const auto& b = parallel4.summaries()[r];
    const auto& c = parallel8.summaries()[r];
    EXPECT_EQ(a.summary.finalMetrics, b.summary.finalMetrics) << r;
    EXPECT_EQ(a.summary.finalMetrics, c.summary.finalMetrics) << r;
    EXPECT_TRUE(a.system.sameArrangement(b.system)) << "replica " << r;
    EXPECT_TRUE(a.system.sameArrangement(c.system)) << "replica " << r;
  }
}

TEST(Ensemble, MatchesStandaloneChainExactly) {
  // A replica is the same trajectory as a directly driven engine.
  sim::MemorySink sink;
  (void)sim::run(compressionReplicas(2, 20000, 2), sink);
  ASSERT_EQ(sink.summaries().size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    ChainOptions options;
    options.lambda = 4.0;
    CompressionEngine direct(system::lineConfiguration(20),
                             CompressionModel(options), 1 + 7 * r);
    direct.run(20000);
    const auto& stored = sink.summaries()[r];
    EXPECT_TRUE(stored.system.sameArrangement(direct.system()));
    // edges is column 0 of the compression metrics.
    EXPECT_EQ(stored.summary.finalMetrics[0],
              static_cast<double>(direct.edges()));
  }
}

TEST(Ensemble, ChecksampledObservableAndFinalStats) {
  sim::RunSpec spec = compressionReplicas(2, 5000, 2);
  spec.checkpointEvery = 1000;
  sim::MemorySink sink;
  const sim::RunReport report = sim::run(spec, sink);
  // Per replica: the iteration-0 row plus one row per checkpoint, streamed
  // in replica order.
  ASSERT_EQ(sink.samples().size(), 2u * 6u);
  for (std::size_t k = 0; k < sink.samples().size(); ++k) {
    EXPECT_EQ(sink.samples()[k].replica, k / 6);
    EXPECT_EQ(sink.samples()[k].iteration, (k % 6) * 1000);
  }
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(sink.samples()[6 * r + 5].values,
              report.replicas[r].finalMetrics);
  }
}

TEST(Ensemble, StopWhenEndsReplicaEarly) {
  sim::RunSpec spec = compressionReplicas(2, 1000000, 2);
  spec.checkpointEvery = 500;
  sim::Observer none;
  const sim::RunReport report =
      sim::run(spec, none, [](const sim::Sample& sample) {
        return sample.iteration >= 2000;
      });
  ASSERT_EQ(report.replicas.size(), 2u);
  for (const sim::ReplicaSummary& replica : report.replicas) {
    EXPECT_EQ(replica.steps, 2000u);
  }
}

}  // namespace
}  // namespace sops::core
