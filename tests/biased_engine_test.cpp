// The weight-model engine's correctness contract:
//
//  1. the compression scenario is *draw-for-draw identical* to the frozen
//     CompressionChain (golden trajectory — the engine is a no-op refactor
//     for the paper's chain M);
//  2. the separation scenario (color bit planes + power tables) is
//     draw-for-draw identical to the fixed extensions::SeparationChain,
//     whose hash-index sameColorNeighbors counts independently re-derive
//     every Δhom — on the flat window AND on the tiled backend;
//  3. at γ = 1 with swaps disabled, the separation scenario degenerates to
//     the compression chain exactly (the threshold-unification pin);
//  4. the alignment scenario preserves the movement invariants and
//     produces the ferromagnetic phase behavior;
//  5. scenario ensembles are deterministic and thread-count independent
//     (this test is also the TSan CI job's target);
//  6. the shared 32-bit particle-draw guard rejects truncating counts
//     (regression for the SeparationChain size_t→uint32 draw bug).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/compression_chain.hpp"
#include "core/draw_guard.hpp"
#include "core/scenario_ensemble.hpp"
#include "core/scenario_models.hpp"
#include "extensions/separation.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

using lattice::TriPoint;
using system::ParticleSystem;

std::vector<std::uint8_t> alternatingColors(std::size_t n) {
  return system::alternatingClasses(n, 2);
}

std::vector<std::uint8_t> cyclingOrientations(std::size_t n) {
  return system::alternatingClasses(n, 6);
}

SeparationModel::Options separationOptions(double lambda, double gamma) {
  SeparationModel::Options o;
  o.lambda = lambda;
  o.gamma = gamma;
  return o;
}

// -- 6. draw-bound guard ----------------------------------------------------

TEST(DrawGuard, AcceptsDrawableCountsAndRejectsTruncatingOnes) {
  EXPECT_EQ(checkedParticleDrawBound(1), 1u);
  EXPECT_EQ(checkedParticleDrawBound(0xFFFFFFFFull), 0xFFFFFFFFu);
  EXPECT_THROW((void)checkedParticleDrawBound(0), ContractViolation);
  // 2^32 truncates to 0, 2^32 + 5 to 5: both must throw instead.
  EXPECT_THROW((void)checkedParticleDrawBound(1ull << 32), ContractViolation);
  EXPECT_THROW((void)checkedParticleDrawBound((1ull << 32) + 5),
               ContractViolation);
}

// -- 1. compression golden trajectory ---------------------------------------

void expectCompressionGolden(const ParticleSystem& start, ChainOptions options,
                             std::uint64_t seed, std::uint64_t steps) {
  CompressionEngine engine(start, CompressionModel(options), seed);
  CompressionChain chain(start, options, seed);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const EngineStepResult result = engine.step();
    const StepOutcome expected = chain.step();
    ASSERT_FALSE(result.wasAux);
    ASSERT_EQ(result.movement, expected) << "diverged at step " << i;
  }
  EXPECT_TRUE(engine.system().sameArrangement(chain.system()));
  EXPECT_EQ(engine.edges(), chain.edges());
  const ChainStats& es = engine.stats().movement;
  const ChainStats& cs = chain.stats();
  EXPECT_EQ(es.steps, cs.steps);
  EXPECT_EQ(es.accepted, cs.accepted);
  EXPECT_EQ(es.targetOccupied, cs.targetOccupied);
  EXPECT_EQ(es.rejectedGap, cs.rejectedGap);
  EXPECT_EQ(es.rejectedProperty, cs.rejectedProperty);
  EXPECT_EQ(es.rejectedFilter, cs.rejectedFilter);
}

TEST(EngineGolden, CompressionMatchesChainAcrossRegimes) {
  ChainOptions compress;
  compress.lambda = 4.0;
  expectCompressionGolden(system::lineConfiguration(60), compress, 1603, 20000);
  ChainOptions expand;
  expand.lambda = 2.0;
  expectCompressionGolden(system::lineConfiguration(60), expand, 77, 20000);
  ChainOptions disperse;
  disperse.lambda = 0.5;
  expectCompressionGolden(system::spiralConfiguration(64), disperse, 13, 15000);
}

TEST(EngineGolden, CompressionMatchesChainWithAblationSwitches) {
  ChainOptions p1Only;
  p1Only.lambda = 3.0;
  p1Only.allowProperty2 = false;
  expectCompressionGolden(system::lineConfiguration(40), p1Only, 31, 10000);
  ChainOptions noGap;
  noGap.lambda = 3.0;
  noGap.enforceGapCondition = false;
  expectCompressionGolden(system::lineConfiguration(40), noGap, 37, 10000);
  ChainOptions greedy;
  greedy.lambda = 4.0;
  greedy.greedy = true;
  expectCompressionGolden(system::lineConfiguration(40), greedy, 5, 10000);
}

// -- 2. separation golden vs the reference chain ----------------------------

void expectSeparationGolden(const ParticleSystem& start,
                            std::vector<std::uint8_t> colors,
                            SeparationModel::Options options,
                            std::uint64_t seed, std::uint64_t steps) {
  SeparationEngine engine(start, SeparationModel(options, colors), seed);
  extensions::SeparationOptions refOptions;
  refOptions.lambda = options.lambda;
  refOptions.gamma = options.gamma;
  refOptions.enableSwaps = options.enableSwaps;
  extensions::SeparationChain reference(start, std::move(colors), refOptions,
                                        seed);
  engine.run(steps);
  reference.run(steps);
  EXPECT_TRUE(engine.system().sameArrangement(reference.system()));
  EXPECT_EQ(engine.model().colors(), reference.colors());
  EXPECT_EQ(engine.stats().steps, reference.stats().steps);
  EXPECT_EQ(engine.stats().movement.accepted, reference.stats().movesAccepted);
  EXPECT_EQ(engine.stats().auxAccepted, reference.stats().swapsAccepted);
  EXPECT_EQ(engine.model().homogeneousEdges(engine.system()),
            reference.homogeneousEdges());
  EXPECT_EQ(engine.edges(), system::countEdges(engine.system()));
}

TEST(EngineGolden, SeparationMatchesReferenceChainDensePath) {
  expectSeparationGolden(system::lineConfiguration(40), alternatingColors(40),
                         separationOptions(4.0, 4.0), 7, 200000);
  expectSeparationGolden(system::spiralConfiguration(48), alternatingColors(48),
                         separationOptions(4.0, 0.25), 11, 200000);
  expectSeparationGolden(system::lineConfiguration(30), alternatingColors(30),
                         separationOptions(2.0, 6.0), 23, 200000);
}

TEST(EngineGolden, SeparationMatchesReferenceChainWithoutSwaps) {
  SeparationModel::Options noSwaps = separationOptions(3.0, 3.0);
  noSwaps.enableSwaps = false;
  expectSeparationGolden(system::lineConfiguration(24), alternatingColors(24),
                         noSwaps, 31, 100000);
}

TEST(EngineGolden, SeparationMatchesReferenceChainOnTiledWindow) {
  // A 20000-particle line exceeds the flat window cap (with proportional
  // margin), so ParticleSystem promotes to the tiled backend — the dense
  // plane-backed kernel must match the reference chain there too.
  const ParticleSystem start = system::lineConfiguration(20000);
  ASSERT_TRUE(start.grid().enabled());
  ASSERT_TRUE(start.grid().tiled());
  expectSeparationGolden(start, alternatingColors(20000),
                         separationOptions(4.0, 4.0), 41, 30000);
}

// -- 3. γ = 1 degenerates to the compression chain --------------------------

TEST(EngineGolden, SeparationAtGammaOneMatchesCompressionChain) {
  // With γ = 1 every γ-power is exactly 1.0, and with swaps disabled the
  // draw stream is the chain's: the two kernels must produce the identical
  // trajectory.  This pins the threshold unification (shared lambdaPower).
  SeparationModel::Options options = separationOptions(4.0, 1.0);
  options.enableSwaps = false;
  const ParticleSystem start = system::lineConfiguration(50);
  SeparationEngine engine(start, SeparationModel(options,
                                                 alternatingColors(50)),
                          1603);
  ChainOptions chainOptions;
  chainOptions.lambda = 4.0;
  CompressionChain chain(start, chainOptions, 1603);
  for (int i = 0; i < 50000; ++i) {
    const EngineStepResult result = engine.step();
    ASSERT_EQ(result.movement, chain.step()) << "diverged at step " << i;
  }
  EXPECT_TRUE(engine.system().sameArrangement(chain.system()));
  EXPECT_EQ(engine.edges(), chain.edges());
}

TEST(Separation, MovementThresholdMatchesCompressionChainAtGammaOne) {
  // Analytic form of the same pin: for every reachable Δe the separation
  // movement threshold at γ = 1 equals the chain's Metropolis ratio from
  // the one shared lambdaPower, bit for bit.
  extensions::SeparationOptions options;
  options.lambda = 3.7;
  options.gamma = 1.0;
  for (int edgeDelta = -5; edgeDelta <= 5; ++edgeDelta) {
    for (int homDelta = -5; homDelta <= 5; ++homDelta) {
      EXPECT_EQ(
          extensions::separationMovementThreshold(options, edgeDelta, homDelta),
          lambdaPower(options.lambda, edgeDelta));
    }
  }
  EXPECT_EQ(extensions::separationSwapThreshold(options, 7), 1.0);
}

// -- invariants of the two new scenarios ------------------------------------

TEST(SeparationEngine, PreservesInvariantsAndSegregates) {
  const ParticleSystem start = system::lineConfiguration(40);
  SeparationEngine segregate(
      start, SeparationModel(separationOptions(4.0, 6.0),
                             alternatingColors(40)),
      3);
  SeparationEngine integrate(
      start,
      SeparationModel(separationOptions(4.0, 1.0 / 6.0), alternatingColors(40)),
      3);
  segregate.run(2000000);
  integrate.run(2000000);
  EXPECT_EQ(segregate.model().colorOneCount(), 20u);
  EXPECT_EQ(integrate.model().colorOneCount(), 20u);
  EXPECT_TRUE(system::isConnected(segregate.system()));
  EXPECT_EQ(system::countHoles(segregate.system()), 0);
  const double homSeg =
      static_cast<double>(
          segregate.model().homogeneousEdges(segregate.system())) /
      static_cast<double>(system::countEdges(segregate.system()));
  const double homInt =
      static_cast<double>(
          integrate.model().homogeneousEdges(integrate.system())) /
      static_cast<double>(system::countEdges(integrate.system()));
  EXPECT_GT(homSeg, homInt + 0.2);
}

TEST(AlignmentEngine, PreservesInvariantsAndAligns) {
  const ParticleSystem start = system::lineConfiguration(40);
  AlignmentModel::Options ferro;
  ferro.lambda = 4.0;
  ferro.kappa = 6.0;
  AlignmentModel::Options para;
  para.lambda = 4.0;
  para.kappa = 1.0 / 6.0;
  AlignmentEngine aligned(start, AlignmentModel(ferro, cyclingOrientations(40)),
                          5);
  AlignmentEngine disordered(start,
                             AlignmentModel(para, cyclingOrientations(40)), 5);
  aligned.run(2000000);
  disordered.run(2000000);
  EXPECT_TRUE(system::isConnected(aligned.system()));
  EXPECT_EQ(system::countHoles(aligned.system()), 0);
  EXPECT_EQ(aligned.system().size(), 40u);
  EXPECT_GT(aligned.stats().auxAccepted, 0u);
  const double aliFerro =
      static_cast<double>(aligned.model().alignedEdges(aligned.system())) /
      static_cast<double>(system::countEdges(aligned.system()));
  const double aliPara =
      static_cast<double>(
          disordered.model().alignedEdges(disordered.system())) /
      static_cast<double>(system::countEdges(disordered.system()));
  // κ = 6 should drive most edges to a common orientation; κ < 1 keeps the
  // system near the 1/6 random-agreement baseline.
  EXPECT_GT(aliFerro, aliPara + 0.3);
  EXPECT_LT(aliPara, 0.4);
}

TEST(AlignmentEngine, CompressesUnderLargeLambda) {
  AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 2.0;
  AlignmentEngine engine(system::lineConfiguration(40),
                         AlignmentModel(options, cyclingOrientations(40)), 9);
  const std::int64_t initial = system::perimeter(engine.system());
  engine.run(2500000);
  EXPECT_LT(system::perimeter(engine.system()), (2 * initial) / 3);
  EXPECT_EQ(engine.edges(), system::countEdges(engine.system()));
}

// -- 5. scenario ensembles (the TSan job's primary target) ------------------

std::vector<ScenarioReplicaSpec<SeparationModel>> separationGrid(
    int replicas, std::uint64_t iterations) {
  std::vector<ScenarioReplicaSpec<SeparationModel>> specs;
  for (int r = 0; r < replicas; ++r) {
    ScenarioReplicaSpec<SeparationModel> spec;
    spec.label = "seed=" + std::to_string(r + 1);
    spec.iterations = iterations;
    spec.checkpointEvery = iterations / 4;
    const auto seed = static_cast<std::uint64_t>(r + 1);
    const double gamma = r % 2 == 0 ? 4.0 : 0.5;
    spec.makeEngine = [seed, gamma] {
      return SeparationEngine(
          system::lineConfiguration(30),
          SeparationModel(separationOptions(4.0, gamma), alternatingColors(30)),
          seed);
    };
    spec.observable = [](const SeparationEngine& engine) {
      return static_cast<double>(
          engine.model().homogeneousEdges(engine.system()));
    };
    spec.finish = [](const SeparationEngine& engine,
                     std::vector<std::pair<std::string, double>>& metrics) {
      metrics.emplace_back(
          "perimeter",
          static_cast<double>(system::perimeter(engine.system())));
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ScenarioEnsemble, DeterministicAndThreadCountIndependent) {
  const auto specs = separationGrid(8, 40000);
  const auto one = runScenarioEnsemble<SeparationModel>(specs, 1);
  const auto four = runScenarioEnsemble<SeparationModel>(specs, 4);
  ASSERT_EQ(one.size(), 8u);
  ASSERT_EQ(four.size(), 8u);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].index, i);
    EXPECT_EQ(one[i].label, four[i].label);
    EXPECT_EQ(one[i].edges, four[i].edges);
    EXPECT_EQ(one[i].stats.movement.accepted, four[i].stats.movement.accepted);
    EXPECT_EQ(one[i].stats.auxAccepted, four[i].stats.auxAccepted);
    ASSERT_EQ(one[i].samples.size(), four[i].samples.size());
    for (std::size_t s = 0; s < one[i].samples.size(); ++s) {
      EXPECT_EQ(one[i].samples[s].value, four[i].samples[s].value);
    }
    ASSERT_EQ(one[i].metrics.size(), 1u);
    EXPECT_EQ(one[i].metrics[0].second, four[i].metrics[0].second);
  }
}

TEST(ScenarioEnsemble, CompressionReplicaMatchesDirectEngineRun) {
  ScenarioReplicaSpec<CompressionModel> spec;
  spec.iterations = 30000;
  ChainOptions options;
  options.lambda = 4.0;
  spec.makeEngine = [options] {
    return CompressionEngine(system::lineConfiguration(40),
                             CompressionModel(options), 99);
  };
  const auto results = runScenarioEnsemble<CompressionModel>(
      std::span<const ScenarioReplicaSpec<CompressionModel>>(&spec, 1), 2);
  CompressionEngine direct(system::lineConfiguration(40),
                           CompressionModel(options), 99);
  direct.run(30000);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].edges, direct.edges());
  EXPECT_EQ(results[0].stats.movement.accepted,
            direct.stats().movement.accepted);
}

TEST(ScenarioEnsemble, AlignmentGridRuns) {
  std::vector<ScenarioReplicaSpec<AlignmentModel>> specs;
  for (const double kappa : {0.5, 4.0}) {
    ScenarioReplicaSpec<AlignmentModel> spec;
    spec.iterations = 40000;
    spec.makeEngine = [kappa] {
      AlignmentModel::Options options;
      options.lambda = 4.0;
      options.kappa = kappa;
      return AlignmentEngine(system::lineConfiguration(24),
                             AlignmentModel(options, cyclingOrientations(24)),
                             17);
    };
    spec.finish = [](const AlignmentEngine& engine,
                     std::vector<std::pair<std::string, double>>& metrics) {
      metrics.emplace_back(
          "aligned",
          static_cast<double>(engine.model().alignedEdges(engine.system())));
    };
    specs.push_back(std::move(spec));
  }
  const auto results = runScenarioEnsemble<AlignmentModel>(specs, 2);
  ASSERT_EQ(results.size(), 2u);
  // κ = 4 replica ends more aligned than the κ = 0.5 one.
  EXPECT_GT(results[1].metrics[0].second, results[0].metrics[0].second);
}

}  // namespace
}  // namespace sops::core
