// The weight-model engine's correctness contract:
//
//  1. the compression scenario is *draw-for-draw identical* to the frozen
//     seed kernel core::ReferenceKernel (golden trajectory — the engine is
//     a no-op refactor of the paper's chain M);
//  2. the separation scenario (color bit planes + power tables) is
//     draw-for-draw identical to the fixed extensions::SeparationChain,
//     whose sameColorNeighbors counts on its own hash occupancy
//     independently re-derive every Δhom — on the flat window AND on the tiled backend;
//  3. at γ = 1 with swaps disabled, the separation scenario degenerates to
//     the compression chain exactly (the threshold-unification pin);
//  4. the alignment scenario preserves the movement invariants and
//     produces the ferromagnetic phase behavior;
//  5. the shared 32-bit particle-draw guard rejects truncating counts
//     (regression for the SeparationChain size_t→uint32 draw bug);
//  6. the hom(σ) / ali(σ) recounts equal a brute-force pair count on both
//     occupancy backends.
//
// Replica fan-out of these engines is sim::run's (tests/sim_api_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/compression_chain.hpp"
#include "core/draw_guard.hpp"
#include "core/reference_kernel.hpp"
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

// -- 5. draw-bound guard ----------------------------------------------------

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
  ReferenceKernel reference(start, options, seed);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const EngineStepResult result = engine.step();
    const StepOutcome expected = reference.step();
    ASSERT_FALSE(result.wasAux);
    ASSERT_EQ(result.movement, expected) << "diverged at step " << i;
  }
  EXPECT_TRUE(engine.system().sameArrangement(reference.system()));
  EXPECT_EQ(engine.edges(), reference.edges());
  const ChainStats& es = engine.stats().movement;
  const ChainStats& cs = reference.stats();
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

TEST(EngineGolden, SeparationAtGammaOneMatchesCompressionEngine) {
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
  CompressionEngine chain(start, CompressionModel(chainOptions), 1603);
  for (int i = 0; i < 50000; ++i) {
    const EngineStepResult result = engine.step();
    ASSERT_EQ(result.movement, chain.step().movement)
        << "diverged at step " << i;
  }
  EXPECT_TRUE(engine.system().sameArrangement(chain.system()));
  EXPECT_EQ(engine.edges(), chain.edges());
}

TEST(Separation, MovementThresholdMatchesChainMAtGammaOne) {
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

/// Same-class induced edges by definition: every adjacent pair, O(n²).
std::int64_t bruteForceSameClassEdges(const ParticleSystem& sys,
                                      const std::vector<std::uint8_t>& classes) {
  std::int64_t count = 0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    for (std::size_t j = i + 1; j < sys.size(); ++j) {
      if (classes[i] == classes[j] &&
          lattice::areAdjacent(sys.position(i), sys.position(j))) {
        ++count;
      }
    }
  }
  return count;
}

TEST(SameClassEdges, MatchBruteForcePairCountFlatAndTiled) {
  // hom(σ) and ali(σ) recount from positions and classes alone; the
  // answer must not depend on the occupancy backend.
  AlignmentModel::Options alignment;
  alignment.lambda = 4.0;
  alignment.kappa = 2.0;
  for (const bool tiled : {false, true}) {
    SCOPED_TRACE(tiled ? "tiled" : "flat");
    ParticleSystem start = system::lineConfiguration(60);
    if (tiled) start.forceTiledForTest();
    SeparationEngine separated(
        start,
        SeparationModel(separationOptions(4.0, 4.0), alternatingColors(60)),
        71);
    AlignmentEngine aligned(
        start, AlignmentModel(alignment, cyclingOrientations(60)), 72);
    for (int burst = 0; burst < 4; ++burst) {
      separated.run(20000);
      aligned.run(20000);
      ASSERT_EQ(separated.system().grid().tiled(), tiled);
      ASSERT_EQ(aligned.system().grid().tiled(), tiled);
      EXPECT_EQ(separated.model().homogeneousEdges(separated.system()),
                bruteForceSameClassEdges(separated.system(),
                                         separated.model().colors()));
      EXPECT_EQ(aligned.model().alignedEdges(aligned.system()),
                bruteForceSameClassEdges(aligned.system(),
                                         aligned.model().orientations()));
    }
  }
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

}  // namespace
}  // namespace sops::core
