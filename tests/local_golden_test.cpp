// Golden-trajectory equivalence for Algorithm A: the optimized amoebot
// layer (bit-plane occupancy, N* ring gathers, per-λ decision table) must
// be *draw-for-draw identical* to the frozen seed kernel in
// amoebot/reference_local_kernel.hpp — same ActivationResult per
// activation, same RNG consumption, same tails/heads/flags — under every
// scheduler, with and without faults, on the flat window and on the tiled
// backend.  This is what keeps the stationary-distribution and
// differential tests meaningful after hot-path rewrites: the optimization
// is required to be a no-op on the trajectory.
//
// The file also pins the sharded runner's determinism contract: the
// trajectory is a pure function of the seed — independent of the worker
// thread count — and the halo/deferral machinery actually executes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "amoebot/faults.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "amoebot/reference_local_kernel.hpp"
#include "amoebot/scheduler.hpp"
#include "core/cancel.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::amoebot {
namespace {

using lattice::TriPoint;
using reference::ReferenceAmoebotSystem;
using reference::ReferenceLocalKernel;
using system::ParticleSystem;

void expectSameState(const AmoebotSystem& fast,
                     const ReferenceAmoebotSystem& ref) {
  ASSERT_EQ(fast.size(), ref.size());
  EXPECT_EQ(fast.expandedCount(), ref.expandedCount());
  for (std::size_t id = 0; id < fast.size(); ++id) {
    const Particle& a = fast.particle(id);
    const Particle& b = ref.particle(id);
    ASSERT_EQ(a.tail, b.tail) << "particle " << id;
    ASSERT_EQ(a.head, b.head) << "particle " << id;
    ASSERT_EQ(a.expanded, b.expanded) << "particle " << id;
    ASSERT_EQ(a.flag, b.flag) << "particle " << id;
    ASSERT_EQ(a.orientationOffset, b.orientationOffset) << "particle " << id;
    ASSERT_EQ(a.mirrored, b.mirrored) << "particle " << id;
  }
}

enum class SchedulerKind { Sequential, RoundRobin, Poisson };

void expectGoldenTrajectory(const ParticleSystem& start, double lambda,
                            SchedulerKind kind, std::uint64_t steps,
                            const FaultPlan& faults = {}) {
  // Identically seeded construction draws on both sides.
  rng::Random ctorFast(101);
  rng::Random ctorRef(101);
  AmoebotSystem fast(start, ctorFast);
  ReferenceAmoebotSystem ref(start, ctorRef);
  applyFaults(fast, faults);
  for (const std::size_t id : faults.crashed) ref.markCrashed(id);
  for (const std::size_t id : faults.byzantine) ref.markByzantine(id);

  const LocalCompressionAlgorithm algo({lambda});
  const ReferenceLocalKernel refAlgo({lambda});
  rng::Random coinFast(103);
  rng::Random coinRef(103);

  // One activation stream per side, identically seeded, so any divergence
  // in RNG consumption shows up as a divergence in the stream itself.
  SequentialScheduler seqFast(start.size(), rng::Random(105));
  SequentialScheduler seqRef(start.size(), rng::Random(105));
  RoundRobinScheduler rrFast(start.size(), rng::Random(105));
  RoundRobinScheduler rrRef(start.size(), rng::Random(105));
  PoissonScheduler poiFast(start.size(), rng::Random(105));
  PoissonScheduler poiRef(start.size(), rng::Random(105));

  for (std::uint64_t i = 0; i < steps; ++i) {
    std::size_t idFast = 0;
    std::size_t idRef = 0;
    switch (kind) {
      case SchedulerKind::Sequential:
        idFast = seqFast.next();
        idRef = seqRef.next();
        break;
      case SchedulerKind::RoundRobin:
        idFast = rrFast.next();
        idRef = rrRef.next();
        break;
      case SchedulerKind::Poisson: {
        const Activation a = poiFast.next();
        const Activation b = poiRef.next();
        ASSERT_EQ(a.particle, b.particle) << "scheduler diverged at " << i;
        ASSERT_EQ(a.time, b.time) << "scheduler diverged at " << i;
        idFast = a.particle;
        idRef = b.particle;
        break;
      }
    }
    ASSERT_EQ(idFast, idRef);
    const ActivationResult fastResult = algo.activate(fast, idFast, coinFast);
    const ActivationResult refResult = refAlgo.activate(ref, idRef, coinRef);
    ASSERT_EQ(fastResult, refResult) << "activation " << i;
  }
  expectSameState(fast, ref);
  // The coins must have been consumed in lockstep too.
  EXPECT_EQ(coinFast.bits(), coinRef.bits());
}

TEST(LocalGolden, SequentialSchedulerLineCompression) {
  expectGoldenTrajectory(system::lineConfiguration(40), 4.0,
                         SchedulerKind::Sequential, 300000);
}

TEST(LocalGolden, SequentialSchedulerExpansionRegime) {
  expectGoldenTrajectory(system::spiralConfiguration(48), 0.5,
                         SchedulerKind::Sequential, 200000);
}

TEST(LocalGolden, RoundRobinScheduler) {
  expectGoldenTrajectory(system::lineConfiguration(40), 4.0,
                         SchedulerKind::RoundRobin, 300000);
}

TEST(LocalGolden, PoissonScheduler) {
  expectGoldenTrajectory(system::lineConfiguration(40), 4.0,
                         SchedulerKind::Poisson, 300000);
}

TEST(LocalGolden, PoissonSchedulerSpiralNearCritical) {
  expectGoldenTrajectory(system::spiralConfiguration(60), 2.0,
                         SchedulerKind::Poisson, 200000);
}

TEST(LocalGolden, WithCrashAndByzantineFaults) {
  FaultPlan plan;
  plan.crashed = {3, 11, 17};
  plan.byzantine = {5, 23};
  expectGoldenTrajectory(system::lineConfiguration(30), 4.0,
                         SchedulerKind::Poisson, 200000, plan);
}

TEST(LocalGolden, TiledWindowMatchesReference) {
  // A configuration too spread out for one flat window (the far singleton
  // keeps the bounding box over the 32 MiB flat cap) promotes the bit
  // planes to the tiled backend: the dense path must stay golden there.
  std::vector<TriPoint> points;
  for (std::int32_t i = 0; i < 20; ++i) points.push_back({i, 0});
  points.push_back({60000, 20000});
  const ParticleSystem start(points);
  {
    rng::Random probe(1);
    AmoebotSystem sys(start, probe);
    ASSERT_TRUE(sys.occupancyGrid().tiled()) << "expected tiled promotion";
  }
  expectGoldenTrajectory(start, 4.0, SchedulerKind::Sequential, 150000);
}

// --- sharded runner determinism ---------------------------------------

struct ShardedOutcome {
  std::vector<TriPoint> tails;
  std::vector<bool> flags;
  std::uint64_t activations = 0;
  std::uint64_t sweepActivations = 0;
  double now = 0.0;
  /// Checksum of the sys.saveState + runner.saveState payload.
  std::uint64_t snapshotChecksum = 0;
};

ShardedOutcome runSharded(unsigned threads, std::uint64_t seed,
                          std::uint64_t minActivations) {
  rng::Random ctor(7);
  AmoebotSystem sys(system::lineConfiguration(400), ctor);
  const LocalCompressionAlgorithm algo({4.0});
  ShardedOptions options;
  options.threads = threads;
  ShardedPoissonRunner runner(sys, algo, seed, options);
  runner.runAtLeast(minActivations);
  ShardedOutcome out;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    out.tails.push_back(sys.particle(id).tail);
    out.flags.push_back(sys.particle(id).flag);
  }
  out.activations = runner.activations();
  out.sweepActivations = runner.sweepActivations();
  out.now = runner.now();
  system::SnapshotWriter w;
  sys.saveState(w);
  runner.saveState(w);
  out.snapshotChecksum = system::snapshotChecksum(w.payload());
  return out;
}

TEST(ShardedRunner, TrajectoryIndependentOfThreadCount) {
  const ShardedOutcome one = runSharded(1, 2016, 250000);
  const ShardedOutcome three = runSharded(3, 2016, 250000);
  const ShardedOutcome eight = runSharded(8, 2016, 250000);
  EXPECT_EQ(one.tails, three.tails);
  EXPECT_EQ(one.flags, three.flags);
  EXPECT_EQ(one.activations, three.activations);
  EXPECT_EQ(one.sweepActivations, three.sweepActivations);
  EXPECT_EQ(one.now, three.now);
  EXPECT_EQ(one.tails, eight.tails);
  EXPECT_EQ(one.activations, eight.activations);
  // Cross-commit golden: trajectory and both snapshot byte layouts.
  EXPECT_EQ(one.snapshotChecksum, 0x4434b7f762bb16d0ull);
  EXPECT_EQ(three.snapshotChecksum, one.snapshotChecksum);
  EXPECT_EQ(eight.snapshotChecksum, one.snapshotChecksum);
  // The line spans several 64-column stripes, so both execution paths must
  // actually have run.
  EXPECT_GT(one.sweepActivations, 0u);
  EXPECT_LT(one.sweepActivations, one.activations);
}

TEST(ShardedRunner, RepeatableForSeedAndSensitiveToIt) {
  const ShardedOutcome a = runSharded(2, 99, 120000);
  const ShardedOutcome b = runSharded(2, 99, 120000);
  const ShardedOutcome c = runSharded(2, 100, 120000);
  EXPECT_EQ(a.tails, b.tails);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_NE(a.tails, c.tails);
}

TEST(ShardedRunner, MidRunCancelStopsAtABoundaryThatResumesExactly) {
  // The amoebot runner shares the chain runner's epoch executor: a token
  // tripped from another thread mid-epoch must stop the run at an epoch
  // boundary whose snapshot (system + runner) continues the uninterrupted
  // run.
  const std::uint64_t events = 400000;
  const LocalCompressionAlgorithm algo({4.0});
  ShardedOptions options;
  options.threads = 2;
  const auto finalState = [](const AmoebotSystem& sys,
                             const ShardedPoissonRunner& runner) {
    system::SnapshotWriter w;
    sys.saveState(w);
    runner.saveState(w);
    return w.payload();
  };
  rng::Random refCtor(7);
  AmoebotSystem refSys(system::lineConfiguration(400), refCtor);
  ShardedPoissonRunner reference(refSys, algo, 2016, options);
  reference.runAtLeast(events);

  rng::Random cutCtor(7);
  AmoebotSystem cutSys(system::lineConfiguration(400), cutCtor);
  ShardedPoissonRunner cut(cutSys, algo, 2016, options);
  core::CancelToken token;
  cut.setCancelToken(&token);
  std::thread tripper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token.requestCancel();
  });
  const std::uint64_t done = cut.runAtLeast(events);
  tripper.join();
  const std::vector<std::uint8_t> payload = finalState(cutSys, cut);

  rng::Random resumedCtor(8);  // orientations are overwritten by the restore
  AmoebotSystem resumedSys(system::lineConfiguration(400), resumedCtor);
  ShardedPoissonRunner resumed(resumedSys, algo, 2016, options);
  system::SnapshotReader r(payload);
  resumedSys.restoreState(r);
  resumed.restoreState(r);
  resumed.runAtLeast(done < events ? events - done : 0);
  EXPECT_EQ(finalState(resumedSys, resumed), finalState(refSys, reference));
}

TEST(ShardedRunner, PreservesInvariantsAndCompresses) {
  rng::Random ctor(11);
  AmoebotSystem sys(system::lineConfiguration(100), ctor);
  const LocalCompressionAlgorithm algo({4.0});
  ShardedPoissonRunner runner(sys, algo, 13);
  const std::int64_t initial = system::perimeter(sys.tailConfiguration());
  std::int64_t best = initial;
  for (int burst = 0; burst < 12; ++burst) {
    runner.runAtLeast(500000);
    const ParticleSystem tails = sys.tailConfiguration();
    ASSERT_TRUE(system::isConnected(tails)) << "burst " << burst;
    best = std::min(best, system::perimeter(tails));
  }
  // At equilibrium the perimeter fluctuates by ±15-20 around its mean at
  // this size, so pin compression by the best burst boundary (strict
  // bound) and the endpoint (loose bound) rather than one knife-edge
  // sample of the stationary distribution.
  EXPECT_LT(best, (3 * initial) / 5);
  EXPECT_LT(system::perimeter(sys.tailConfiguration()), (2 * initial) / 3);
  // Between bursts the occupancy plane agrees with particle state.
  for (std::size_t id = 0; id < sys.size(); ++id) {
    const Particle& p = sys.particle(id);
    ASSERT_TRUE(sys.occupied(p.tail));
    ASSERT_TRUE(sys.occupied(p.head));
  }
}

TEST(ShardedRunner, ExplicitUnitRatesRunTheDefaultTrajectory) {
  // Equal rates need no thinning, so all-ones rates draw exactly what the
  // default (empty) rates draw.
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const bool explicitOnes : {false, true}) {
    rng::Random ctor(7);
    AmoebotSystem sys(system::lineConfiguration(400), ctor);
    const LocalCompressionAlgorithm algo({4.0});
    ShardedOptions options;
    options.threads = 2;
    if (explicitOnes) options.rates.assign(sys.size(), 1.0);
    ShardedPoissonRunner runner(sys, algo, 2017, options);
    runner.runAtLeast(120000);
    system::SnapshotWriter w;
    sys.saveState(w);
    runner.saveState(w);
    payloads.push_back(w.payload());
  }
  EXPECT_EQ(payloads[1], payloads[0]);
}

TEST(ShardedRunner, ExecutorSnapshotStateIsConstantInN) {
  // The runner's payload is its clock and activation count (16 bytes)
  // followed by the executor's share, which keeps no per-particle state:
  // the same byte count at n = 10^3 and n = 10^4.
  std::vector<std::size_t> shares;
  for (const std::int64_t n : {1000, 10000}) {
    rng::Random ctor(7);
    AmoebotSystem sys(system::spiralConfiguration(n), ctor);
    const LocalCompressionAlgorithm algo({4.0});
    ShardedOptions options;
    options.threads = 2;
    ShardedPoissonRunner runner(sys, algo, 2018, options);
    runner.runAtLeast(static_cast<std::uint64_t>(3 * n));
    system::SnapshotWriter w;
    runner.saveState(w);
    ASSERT_GT(w.payload().size(), 16u);
    shares.push_back(w.payload().size() - 16);
  }
  EXPECT_EQ(shares[1], shares[0]);
}

TEST(ShardedRunner, HeterogeneousRatesRunAndStayDeterministic) {
  const auto run = [](unsigned threads) {
    rng::Random ctor(21);
    AmoebotSystem sys(system::lineConfiguration(200), ctor);
    const LocalCompressionAlgorithm algo({4.0});
    ShardedOptions options;
    options.threads = threads;
    options.rates.assign(sys.size(), 1.0);
    for (std::size_t i = 0; i < options.rates.size(); ++i) {
      options.rates[i] = 0.5 + static_cast<double>(i % 7);
    }
    ShardedPoissonRunner runner(sys, algo, 23, options);
    runner.runAtLeast(150000);
    std::vector<TriPoint> tails;
    for (std::size_t id = 0; id < sys.size(); ++id) {
      tails.push_back(sys.particle(id).tail);
    }
    return tails;
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace sops::amoebot
