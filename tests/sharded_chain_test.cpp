// The sharded chain runner's two contracts (core/sharded_chain_runner.hpp):
//
//  1. Determinism: the trajectory is a pure function of the seed —
//     independent of the stripe-phase thread count — for all three weight
//     models, including configurations that straddle many 64-column
//     stripe boundaries.  These tests run under TSan in CI (suite
//     ShardedChain is in the tsan job's filter), so the exclusive-word
//     discipline is also checked for data races, not just outcomes.
//
//  2. Distribution: the Poissonized, stripe-reordered schedule must
//     sample the same stationary distribution as the sequential chain.
//     At enumerable sizes the exact π is available; beyond them the
//     sequential engine is the reference.
//
// Pre-registered design for the distributional tests (fixed before
// looking at outcomes, matching tests/local_vs_chain_test.cpp):
//   - burn-in 50,000 events; one sample every 48 events;
//     150,000 samples at n = 4 (44 states), 200,000 at n = 5 (186);
//   - expected cells below 5 pooled (Cochran, the stats.hpp default);
//   - acceptance: chi-square p > 0.01; two-sample KS p > 0.001;
//   - fixed seeds, so the tests are reproducible rather than flaky.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/stats.hpp"
#include "core/cancel.hpp"
#include "core/epoch_control.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "enumeration/exact_distribution.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::core {
namespace {

using system::ParticleSystem;

// --- determinism across thread counts --------------------------------------

/// Everything one run can disagree on: per-id positions (stronger than
/// arrangement equality), the tracked edge count, the full outcome tally,
/// and how much of the schedule ran on the sweep.
struct RunSignature {
  std::vector<TriPoint> positions;
  std::int64_t edges = 0;
  std::uint64_t steps = 0;
  std::uint64_t accepted = 0;
  std::uint64_t auxAccepted = 0;
  std::uint64_t sweepEvents = 0;

  bool operator==(const RunSignature& other) const {
    return positions == other.positions && edges == other.edges &&
           steps == other.steps && accepted == other.accepted &&
           auxAccepted == other.auxAccepted &&
           sweepEvents == other.sweepEvents;
  }
};

template <typename Model>
RunSignature signatureOf(const ShardedChainRunner<Model>& runner) {
  RunSignature sig;
  sig.positions = runner.system().positions();
  sig.edges = runner.edges();
  sig.steps = runner.stats().steps;
  sig.accepted = runner.stats().movement.accepted;
  sig.auxAccepted = runner.stats().auxAccepted;
  sig.sweepEvents = runner.sweepEvents();
  return sig;
}

/// Runs `runner` in three bursts (crossing several epoch barriers and
/// run boundaries) and checks the bookkeeping invariants
/// every run must keep exactly: tracked e(σ) vs a full recount, and
/// connectivity (every executed event is a legal move of the model).
/// With `golden`, also pins the checksum of the saveState payload: the
/// trajectory and the snapshot byte layout, fixed across commits rather
/// than only across thread counts.
template <typename Model>
RunSignature runAndCheck(ShardedChainRunner<Model>& runner,
                         std::uint64_t events,
                         std::optional<std::uint64_t> golden = {}) {
  for (int burst = 0; burst < 3; ++burst) runner.runAtLeast(events / 3);
  EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
  EXPECT_TRUE(system::isConnected(runner.system()));
  if (golden) {
    system::SnapshotWriter w;
    runner.saveState(w);
    EXPECT_EQ(system::snapshotChecksum(w.payload()), *golden);
  }
  return signatureOf(runner);
}

/// The thread counts the contract quantifies over: inline, small pool, a
/// count coprime to any stripe structure, and whatever this host has.
std::vector<unsigned> contractThreadCounts() {
  return {1u, 2u, 7u, std::max(1u, std::thread::hardware_concurrency())};
}

TEST(ShardedChain, CompressionTrajectoryIndependentOfThreadCount) {
  // n = 300 line: the window spans ≥ 5 stripes, so the start straddles
  // several stripe boundaries and halo bands stay busy all run.
  ChainOptions options;
  options.lambda = 4.0;
  std::vector<RunSignature> signatures;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<CompressionModel> runner(
        system::lineConfiguration(300), CompressionModel(options), 9001,
        sharded);
    signatures.push_back(runAndCheck(runner, 120000, 0x4760a949648f9e03ull));
    EXPECT_GT(signatures.back().sweepEvents, 0u);
    EXPECT_LT(signatures.back().sweepEvents, signatures.back().steps);
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
  }
}

TEST(ShardedChain, SeparationTrajectoryIndependentOfThreadCount) {
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  std::vector<RunSignature> signatures;
  std::vector<std::vector<std::uint8_t>> colorings;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<SeparationModel> runner(
        system::lineConfiguration(300),
        SeparationModel(options, system::alternatingClasses(300, 2)), 9007,
        sharded);
    signatures.push_back(runAndCheck(runner, 120000, 0x6afd0242f657d9eaull));
    colorings.push_back(runner.model().colors(runner.system()));
    EXPECT_GT(runner.stats().auxAccepted, 0u);  // swaps actually exercised
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
    EXPECT_EQ(colorings[i], colorings[0]) << "thread count #" << i;
  }
}

TEST(ShardedChain, AlignmentTrajectoryIndependentOfThreadCount) {
  AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 4.0;
  std::vector<RunSignature> signatures;
  std::vector<std::vector<std::uint8_t>> orientations;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<AlignmentModel> runner(
        system::lineConfiguration(300),
        AlignmentModel(options, system::alternatingClasses(300, 6)), 9011,
        sharded);
    signatures.push_back(runAndCheck(runner, 120000, 0x580b6d1248ebae4cull));
    orientations.push_back(runner.model().orientations());
    EXPECT_GT(runner.stats().auxAccepted, 0u);  // rotations exercised
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
    EXPECT_EQ(orientations[i], orientations[0]) << "thread count #" << i;
  }
}

TEST(ShardedChain, LargeFlatWindowSeparationRunsStriped) {
  // A 10k line's window (proportional margins make it ~15062 × 5063 ≈ 76M
  // cells but only ~1.2M words) is dense and flat, far larger than any
  // per-cell mirror could afford.  Separation keeps its colors in two bit
  // planes of the window's geometry, so the epochs keep running striped —
  // stripe workers swap colors by flipping plane bits, and only halo and
  // window-edge events fall to the sequential sweep.
  const std::size_t n = 10000;
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  ShardedChainOptions sharded;
  sharded.threads = 2;
  ShardedChainRunner<SeparationModel> runner(
      system::lineConfiguration(static_cast<std::int64_t>(n)),
      SeparationModel(options, system::alternatingClasses(n, 2)), 9017,
      sharded);
  ASSERT_GT(runner.system().grid().width() * runner.system().grid().height(),
            std::uint64_t{1} << 24);
  ASSERT_TRUE(runner.system().grid().enabled());
  ASSERT_FALSE(runner.system().grid().tiled());
  const std::uint64_t executed = runner.runAtLeast(50000);
  // The bulk of the events ran on the parallel stripe phase.
  EXPECT_LT(runner.sweepEvents(), executed);
  EXPECT_EQ(runner.stats().steps, executed);
  EXPECT_GT(runner.stats().auxAccepted, 0u);  // swaps exercised
  EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
}

TEST(ShardedChain, ThreadInvariantAcrossEpochConfigurations) {
  // The contract quantifies over the epoch machinery too: several fixed
  // targets (small epochs, derived-scale epochs, big epochs), the
  // adaptive controller (the default), and heterogeneous clock rates must
  // each give a trajectory — and an adaptive-target history — that is a
  // pure function of the seed.  The final epoch target is part of the
  // signature: the controller's decisions are made from deferred/total
  // counts, which are themselves thread-invariant.
  struct Config {
    std::uint64_t target;  // 0 = adaptive
    bool ramped;           // heterogeneous rates?
  };
  const std::size_t n = 300;
  std::vector<double> ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    ramp[i] = 1.0 + 3.0 * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  for (const Config config :
       {Config{96, false}, Config{2048, false}, Config{16384, false},
        Config{0, false}, Config{0, true}}) {
    std::vector<RunSignature> signatures;
    std::vector<std::uint64_t> targets;
    for (const unsigned threads : {1u, 3u, std::max(
             1u, std::thread::hardware_concurrency())}) {
      ChainOptions options;
      options.lambda = 4.0;
      ShardedChainOptions sharded;
      sharded.threads = threads;
      sharded.targetEventsPerEpoch = config.target;
      if (config.ramped) sharded.rates = ramp;
      ShardedChainRunner<CompressionModel> runner(
          system::lineConfiguration(static_cast<std::int64_t>(n)),
          CompressionModel(options), 9019, sharded);
      signatures.push_back(runAndCheck(runner, 90000));
      targets.push_back(runner.epochTarget());
    }
    for (std::size_t i = 1; i < signatures.size(); ++i) {
      EXPECT_TRUE(signatures[i] == signatures[0])
          << "target " << config.target << " ramped " << config.ramped
          << " thread count #" << i;
      EXPECT_EQ(targets[i], targets[0])
          << "target " << config.target << " ramped " << config.ramped;
    }
    if (config.target != 0) {
      EXPECT_EQ(targets[0], config.target);
    }
  }
}

TEST(ShardedChain, ExplicitUnitRatesRunTheDefaultTrajectory) {
  // Equal rates need no thinning, so all-ones rates draw exactly what the
  // default (empty) rates draw.
  const std::size_t n = 300;
  ChainOptions options;
  options.lambda = 4.0;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const bool explicitOnes : {false, true}) {
    ShardedChainOptions sharded;
    sharded.threads = 2;
    if (explicitOnes) sharded.rates.assign(n, 1.0);
    ShardedChainRunner<CompressionModel> runner(
        system::lineConfiguration(static_cast<std::int64_t>(n)),
        CompressionModel(options), 9023, sharded);
    runAndCheck(runner, 60000);
    system::SnapshotWriter w;
    runner.saveState(w);
    payloads.push_back(w.payload());
  }
  EXPECT_EQ(payloads[1], payloads[0]);
}

TEST(ShardedChain, ExecutorSnapshotStateIsConstantInN) {
  // The executor keeps no per-particle schedule state: its share of the
  // payload (everything after the runner's prefix) is the same at n = 10^3
  // and n = 10^4.
  ChainOptions options;
  options.lambda = 4.0;
  std::vector<std::size_t> shares;
  for (const std::int64_t n : {1000, 10000}) {
    ShardedChainOptions sharded;
    sharded.threads = 2;
    ShardedChainRunner<CompressionModel> runner(
        system::spiralConfiguration(n), CompressionModel(options), 9029,
        sharded);
    runner.runAtLeast(static_cast<std::uint64_t>(3 * n));
    system::SnapshotWriter whole;
    runner.saveState(whole);
    system::SnapshotWriter prefix;
    system::writeParticleSystem(prefix, runner.system());
    runner.model().serialize(prefix, runner.system());
    writeEngineStats(prefix, runner.stats());
    prefix.i64(runner.edges());
    prefix.f64(runner.now());
    ASSERT_GT(whole.payload().size(), prefix.payload().size());
    shares.push_back(whole.payload().size() - prefix.payload().size());
  }
  EXPECT_EQ(shares[1], shares[0]);
}

TEST(ShardedChain, DerivedEpochTargetClampedToCap) {
  // Regression: the derived default target (2n) used to bypass the 2^28
  // guard that explicit targets got, so a hypothetical 2^27-particle
  // system would have produced epochs above the cap (and with it an
  // event-buffer footprint the sort/merge machinery never budgets for).
  // The derivation is a pure function, so the regression pins it
  // directly, plus the floor and the midrange.
  EXPECT_EQ(derivedEpochTarget(1), 1024u);
  EXPECT_EQ(derivedEpochTarget(512), 1024u);
  EXPECT_EQ(derivedEpochTarget(10000), 20000u);
  EXPECT_EQ(derivedEpochTarget(std::uint64_t{1} << 27), kMaxEventsPerEpoch);
  EXPECT_EQ(derivedEpochTarget((std::uint64_t{1} << 27) + 12345),
            kMaxEventsPerEpoch);
  EXPECT_EQ(derivedEpochTarget(std::uint64_t{1} << 40), kMaxEventsPerEpoch);

  // The adaptive controller inherits the cap: from any particle count its
  // upper bound never exceeds 2^28, so no sequence of doublings can
  // escape it.
  AdaptiveEpochController huge(std::uint64_t{1} << 40);
  EXPECT_EQ(huge.target(), kMaxEventsPerEpoch);
  for (int i = 0; i < 80; ++i) huge.update(0, 1000);  // always "double"
  EXPECT_EQ(huge.target(), kMaxEventsPerEpoch);

  AdaptiveEpochController small(300);
  EXPECT_EQ(small.target(), 1024u);
  for (int i = 0; i < 80; ++i) small.update(1000, 1000);  // always "halve"
  EXPECT_EQ(small.target(), 1024u);  // floor holds
  for (int i = 0; i < 80; ++i) small.update(0, 1000);  // always "double"
  EXPECT_EQ(small.target(), 4800u);  // ceiling: min(16n, cap)
}

TEST(ShardedChain, CompactShapeTrajectoryIndependentOfThreadCount) {
  // A spiral sits inside one or two stripes with the action at the
  // window's interior — the complementary stripe geometry to the line.
  ChainOptions options;
  options.lambda = 4.0;
  std::vector<RunSignature> signatures;
  for (const unsigned threads : contractThreadCounts()) {
    ShardedChainOptions sharded;
    sharded.threads = threads;
    ShardedChainRunner<CompressionModel> runner(
        system::spiralConfiguration(500), CompressionModel(options), 9013,
        sharded);
    signatures.push_back(runAndCheck(runner, 90000));
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
  }
}

TEST(ShardedChain, MidRunCancelStopsAtABoundaryThatResumesExactly) {
  // A token tripped from another thread lands mid-epoch.  The run must
  // finish that epoch and stop at its boundary, and its snapshot must
  // continue the uninterrupted trajectory.  Where the cut lands depends on
  // timing; what it must satisfy does not.
  const std::uint64_t events = 600000;
  ChainOptions options;
  options.lambda = 4.0;
  ShardedChainOptions sharded;
  sharded.threads = 2;
  const auto make = [&] {
    return ShardedChainRunner<CompressionModel>(
        system::lineConfiguration(300), CompressionModel(options), 9001,
        sharded);
  };
  ShardedChainRunner<CompressionModel> reference = make();
  reference.runAtLeast(events);

  ShardedChainRunner<CompressionModel> cut = make();
  CancelToken token;
  cut.setCancelToken(&token);
  std::thread tripper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token.requestCancel();
  });
  const std::uint64_t done = cut.runAtLeast(events);
  tripper.join();
  system::SnapshotWriter w;
  cut.saveState(w);

  ShardedChainRunner<CompressionModel> resumed = make();
  system::SnapshotReader r(w.payload());
  resumed.restoreState(r);
  resumed.runAtLeast(done < events ? events - done : 0);
  EXPECT_TRUE(signatureOf(resumed) == signatureOf(reference));
}

}  // namespace
}  // namespace sops::core

// --- distributional validation ---------------------------------------------
// Heavier chains live in their own suite so the TSan job (which runs the
// ShardedChain determinism tests above under a ~10x slowdown) does not
// also pay for millions of distribution-sampling events.

namespace sops::core {
namespace {

constexpr int kBurnIn = 50000;
constexpr int kStride = 48;
constexpr double kAcceptP = 0.01;

/// Chi-square of the sharded compression runner's visited configurations
/// against the exact π(σ) = λ^e/Z over Ω*.  Epochs are sized to the
/// sampling stride so each runAtLeast() burst is one sampling interval.
void expectShardedCompressionMatchesPi(int n, int instants, std::uint64_t seed,
                                       std::vector<double> rates = {}) {
  const enumeration::ExactEnsemble ensemble(n);
  const double lambda = 2.0;
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  ChainOptions options;
  options.lambda = lambda;
  ShardedChainOptions sharded;
  sharded.targetEventsPerEpoch = kStride;
  sharded.rates = std::move(rates);
  ShardedChainRunner<CompressionModel> runner(
      system::lineConfiguration(n), CompressionModel(options), seed, sharded);
  runner.runAtLeast(kBurnIn);
  std::vector<double> counts(ensemble.configs().size(), 0.0);
  for (int s = 0; s < instants; ++s) {
    runner.runAtLeast(kStride);
    const auto it = indexOf.find(system::canonicalKey(runner.system()));
    ASSERT_NE(it, indexOf.end()) << "sharded runner left the support of pi";
    counts[it->second] += 1.0;
  }
  const std::vector<double> exact = ensemble.stationary(lambda);
  double total = 0.0;
  for (const double c : counts) total += c;
  ASSERT_GT(total, 1000.0);
  const analysis::ChiSquareResult gof =
      analysis::chiSquareGoodnessOfFit(counts, exact);
  EXPECT_GT(gof.pValue, kAcceptP)
      << "chi2 = " << gof.statistic << ", dof = " << gof.dof
      << ", samples = " << total;
}

TEST(ShardedChainDistribution, CompressionMatchesExactPiN4) {
  expectShardedCompressionMatchesPi(4, 150000, 1201);
}

TEST(ShardedChainDistribution, CompressionMatchesExactPiN5) {
  expectShardedCompressionMatchesPi(5, 200000, 1301);
}

// Heterogeneous clock rates leave π unchanged: the jump chain picks
// particle i with probability r_i / Σr, but a move σ→τ and its reverse
// τ→σ are proposals of the *same* particle (the one that moves), so the
// selection bias cancels pairwise and the Metropolis filter min(1, λ^Δe)
// still balances π(σ) ∝ λ^{e(σ)}.  Only the *clock* on each transition
// changes, not the stationary law — so the expected chi-square counts are
// the plain exact π, same as the uniform chain.

TEST(ShardedChainDistribution, HeterogeneousRatesMatchExactPiN4) {
  expectShardedCompressionMatchesPi(4, 150000, 1401, {0.5, 2.0, 1.25, 3.0});
}

TEST(ShardedChainDistribution, HeterogeneousRatesMatchExactPiN5) {
  expectShardedCompressionMatchesPi(5, 200000, 1501,
                                    {1.0, 4.0, 0.25, 2.0, 1.5});
}

TEST(ShardedChainDistribution, PerimeterMatchesSequentialEngineKS) {
  // Beyond enumerable sizes: at n = 10⁴ the sharded runner and the
  // sequential engine must agree on observables.  Each side runs R
  // independent replicas from the same line start for a matched number
  // of events (the sequential replica re-runs the sharded one's exact
  // executed count, absorbing epoch rounding), and the two final-
  // perimeter samples are compared by two-sample KS.  Replicas are
  // independent, so the KS iid assumption is sound.
  const std::int64_t n = 10000;
  const double lambda = 4.0;
  constexpr int kReplicas = 24;
  constexpr std::uint64_t kEvents = 150000;

  std::vector<double> shardedPerimeters;
  std::vector<double> enginePerimeters;
  for (int r = 0; r < kReplicas; ++r) {
    ChainOptions options;
    options.lambda = lambda;
    ShardedChainRunner<CompressionModel> runner(
        system::lineConfiguration(n), CompressionModel(options),
        5000 + static_cast<std::uint64_t>(r) * 13);
    runner.runAtLeast(kEvents);
    shardedPerimeters.push_back(
        static_cast<double>(system::perimeter(runner.system())));

    CompressionEngine engine(system::lineConfiguration(n),
                             CompressionModel(options),
                             9000 + static_cast<std::uint64_t>(r) * 17);
    engine.run(runner.stats().steps);
    enginePerimeters.push_back(
        static_cast<double>(system::perimeter(engine.system())));
  }
  const analysis::KsResult ks =
      analysis::ksTwoSample(shardedPerimeters, enginePerimeters);
  EXPECT_GT(ks.pValue, 0.001) << "D = " << ks.statistic;
}

}  // namespace
}  // namespace sops::core
