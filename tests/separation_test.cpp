// Tests for the two-color separation extension (S12, E16).
#include <gtest/gtest.h>

#include <vector>

#include "oracles/separation_chain.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::extensions {
namespace {

std::vector<std::uint8_t> alternatingColors(std::size_t n) {
  std::vector<std::uint8_t> colors(n);
  for (std::size_t i = 0; i < n; ++i) {
    colors[i] = static_cast<std::uint8_t>(i % 2);
  }
  return colors;
}

SeparationOptions options(double lambda, double gamma) {
  SeparationOptions o;
  o.lambda = lambda;
  o.gamma = gamma;
  return o;
}

TEST(Separation, RejectsBadInputs) {
  const auto sys = system::lineConfiguration(4);
  EXPECT_THROW(SeparationChain(sys, {0, 1, 0}, options(4, 4), 1),
               ContractViolation);  // wrong color count
  EXPECT_THROW(SeparationChain(sys, {0, 1, 2, 0}, options(4, 4), 1),
               ContractViolation);  // invalid color
  EXPECT_THROW(SeparationChain(sys, alternatingColors(4), options(0, 4), 1),
               ContractViolation);  // bad lambda
}

TEST(Separation, RejectsEmptySystemAtConstruction) {
  // Regression for the size_t→uint32 particle-draw truncation: both step
  // kinds draw via the shared 32-bit bound (core::checkedParticleDrawBound,
  // unit-tested for the ≥2³² truncation cases), which also rejects the
  // empty system that previously deferred UB to the first step().
  EXPECT_THROW(SeparationChain(system::ParticleSystem(), {}, options(4, 4), 1),
               ContractViolation);
}

TEST(Separation, ColorCountsConserved) {
  SeparationChain chain(system::lineConfiguration(20), alternatingColors(20),
                        options(4.0, 4.0), 7);
  const std::size_t before = chain.colorOneCount();
  chain.run(200000);
  EXPECT_EQ(chain.colorOneCount(), before);
  EXPECT_EQ(chain.system().size(), 20u);
}

TEST(Separation, ConnectivityAndHoleInvariants) {
  SeparationChain chain(system::lineConfiguration(24), alternatingColors(24),
                        options(4.0, 4.0), 11);
  for (int burst = 0; burst < 50; ++burst) {
    chain.run(2000);
    ASSERT_TRUE(system::isConnected(chain.system()));
    ASSERT_EQ(system::countHoles(chain.system()), 0);
  }
}

TEST(Separation, HomogeneousEdgeCounterMatchesDefinition) {
  // Hand-checkable: line of 4 with colors 0,0,1,1 has hom edges (0-1),(2-3).
  SeparationChain chain(system::lineConfiguration(4), {0, 0, 1, 1},
                        options(4.0, 4.0), 1);
  EXPECT_EQ(chain.homogeneousEdges(), 2);
}

TEST(Separation, HighGammaSegregatesColors) {
  // After the same budget from the same start, γ=6 must produce clearly
  // more monochromatic edges than γ=1/6 (integration).
  const auto start = system::lineConfiguration(40);
  SeparationChain segregate(start, alternatingColors(40), options(4.0, 6.0), 3);
  SeparationChain integrate(start, alternatingColors(40),
                            options(4.0, 1.0 / 6.0), 3);
  segregate.run(2000000);
  integrate.run(2000000);
  const double homSeg =
      static_cast<double>(segregate.homogeneousEdges()) /
      static_cast<double>(system::countEdges(segregate.system()));
  const double homInt =
      static_cast<double>(integrate.homogeneousEdges()) /
      static_cast<double>(system::countEdges(integrate.system()));
  EXPECT_GT(homSeg, homInt + 0.2);
}

TEST(Separation, CompressionStillHappensWithLargeLambda) {
  SeparationChain chain(system::lineConfiguration(40), alternatingColors(40),
                        options(4.0, 2.0), 5);
  const std::int64_t initial = system::perimeter(chain.system());
  chain.run(2500000);
  EXPECT_LT(system::perimeter(chain.system()), (2 * initial) / 3);
}

TEST(Separation, SwapStatsAccumulate) {
  SeparationChain chain(system::lineConfiguration(20), alternatingColors(20),
                        options(2.0, 3.0), 13);
  chain.run(100000);
  EXPECT_EQ(chain.stats().steps, 100000u);
  EXPECT_GT(chain.stats().swapsAccepted, 0u);
  EXPECT_GT(chain.stats().movesAccepted, 0u);
}

TEST(Separation, SwapsCanBeDisabled) {
  SeparationOptions noSwaps = options(3.0, 3.0);
  noSwaps.enableSwaps = false;
  SeparationChain chain(system::lineConfiguration(12), alternatingColors(12),
                        noSwaps, 17);
  chain.run(50000);
  EXPECT_EQ(chain.stats().swapsAccepted, 0u);
}

}  // namespace
}  // namespace sops::extensions
