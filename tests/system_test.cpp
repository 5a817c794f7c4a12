// Tests for the particle-system substrate (S4): occupancy bookkeeping and
// the configuration metrics of paper §2.2–2.3.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "rng/random.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"
#include "system/serialize.hpp"
#include "system/shapes.hpp"

namespace sops::system {
namespace {

using lattice::TriPoint;

ParticleSystem makeTriangle() {
  return ParticleSystem(std::vector<TriPoint>{{0, 0}, {1, 0}, {0, 1}});
}

TEST(ParticleSystem, ConstructionAndOccupancy) {
  const ParticleSystem sys = makeTriangle();
  EXPECT_EQ(sys.size(), 3u);
  EXPECT_TRUE(sys.occupied({0, 0}));
  EXPECT_TRUE(sys.occupied({1, 0}));
  EXPECT_FALSE(sys.occupied({1, 1}));
  EXPECT_EQ(sys.position(1), (TriPoint{1, 0}));
  EXPECT_FALSE(sys.occupied({5, 5}));
}

TEST(ParticleSystem, DuplicatePositionsRejected) {
  const std::vector<TriPoint> dup{{0, 0}, {0, 0}};
  EXPECT_THROW(ParticleSystem{dup}, ContractViolation);
}

/// Runs `build` and expects a ContractViolation whose message names
/// `fragment`.
template <typename Build>
void expectNamedViolation(Build&& build, const std::string& fragment) {
  try {
    build();
    ADD_FAILURE() << "expected a ContractViolation naming '" << fragment
                  << "'";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << error.what();
  }
}

TEST(ParticleSystem, DuplicatePositionsAreNamedOnEveryPath) {
  // The occupancy grid is the duplicate check: a point whose bit is
  // already set is rejected on the flat window and on the tiled backend.
  const std::vector<TriPoint> flat{{0, 0}, {1, 0}, {0, 0}};
  expectNamedViolation([&] { (void)ParticleSystem(flat); },
                       "duplicate particle position");
  // Far enough apart to force the tiled backend.
  const std::vector<TriPoint> tiled{{0, 0}, {1 << 28, 0}, {0, 0}};
  expectNamedViolation([&] { (void)ParticleSystem(tiled); },
                       "duplicate particle position");
  expectNamedViolation([] { (void)fromText("0,0 1,0 0,0"); },
                       "duplicate particle position");
  ParticleSystem sys = makeTriangle();
  expectNamedViolation([&] { sys.add({1, 0}); }, "already occupied");
  EXPECT_EQ(sys.size(), 3u);  // the failed add left the system unchanged
}

TEST(ParticleSystem, MoveParticleUpdatesIndex) {
  ParticleSystem sys = makeTriangle();
  sys.moveParticle(2, {1, 1});
  EXPECT_FALSE(sys.occupied({0, 1}));
  EXPECT_TRUE(sys.occupied({1, 1}));
  EXPECT_EQ(sys.position(2), (TriPoint{1, 1}));
}

TEST(ParticleSystem, MoveOntoOccupiedThrows) {
  ParticleSystem sys = makeTriangle();
  EXPECT_THROW(sys.moveParticle(0, {1, 0}), ContractViolation);
}

TEST(ParticleSystem, AddRemove) {
  ParticleSystem sys = makeTriangle();
  const std::size_t id = sys.add({2, 0});
  EXPECT_EQ(sys.size(), 4u);
  EXPECT_TRUE(sys.occupied({2, 0}));
  sys.remove(id);
  EXPECT_EQ(sys.size(), 3u);
  EXPECT_FALSE(sys.occupied({2, 0}));
}

TEST(ParticleSystem, RemoveSwapsLastParticle) {
  ParticleSystem sys = makeTriangle();
  sys.remove(0);  // particle 2's position should remain addressable
  EXPECT_EQ(sys.size(), 2u);
  EXPECT_FALSE(sys.occupied({0, 0}));
  EXPECT_TRUE(sys.occupied({1, 0}));
  EXPECT_TRUE(sys.occupied({0, 1}));
  // The last particle takes over the removed id.
  EXPECT_EQ(sys.position(0), (TriPoint{0, 1}));
  EXPECT_EQ(sys.position(1), (TriPoint{1, 0}));
}

TEST(ParticleSystem, NeighborCountAndMask) {
  const ParticleSystem sys = makeTriangle();
  EXPECT_EQ(sys.neighborCount({0, 0}), 2);
  EXPECT_EQ(sys.neighborCount({1, 1}), 2);  // adjacent to (0,1) and (1,0)
  EXPECT_EQ(sys.neighborCount({5, 5}), 0);
  const std::uint8_t mask = sys.neighborMask({0, 0});
  EXPECT_EQ(__builtin_popcount(mask), 2);
  EXPECT_TRUE(mask & (1u << 0));  // East = (1,0)
  EXPECT_TRUE(mask & (1u << 1));  // NorthEast = (0,1)
}

TEST(ParticleSystem, SameArrangement) {
  const ParticleSystem a(std::vector<TriPoint>{{0, 0}, {1, 0}});
  const ParticleSystem b(std::vector<TriPoint>{{1, 0}, {0, 0}});
  const ParticleSystem c(std::vector<TriPoint>{{0, 0}, {2, 0}});
  EXPECT_TRUE(a.sameArrangement(b));
  EXPECT_FALSE(a.sameArrangement(c));
}

// --- metrics ---

TEST(Metrics, SingleParticle) {
  const ParticleSystem sys(std::vector<TriPoint>{{0, 0}});
  EXPECT_EQ(countEdges(sys), 0);
  EXPECT_EQ(countTriangles(sys), 0);
  EXPECT_EQ(countHoles(sys), 0);
  EXPECT_TRUE(isConnected(sys));
  EXPECT_EQ(perimeter(sys), 0);
}

TEST(Metrics, PairHasPerimeterTwo) {
  // Lemma 2.1's base case: two particles have perimeter 2 (cut edge
  // counted twice).
  const ParticleSystem sys(std::vector<TriPoint>{{0, 0}, {1, 0}});
  EXPECT_EQ(countEdges(sys), 1);
  EXPECT_EQ(perimeter(sys), 2);
}

TEST(Metrics, TriangleCounts) {
  const ParticleSystem sys = makeTriangle();
  EXPECT_EQ(countEdges(sys), 3);
  EXPECT_EQ(countTriangles(sys), 1);
  EXPECT_EQ(perimeter(sys), 3);
}

TEST(Metrics, DownTriangleCounted) {
  const ParticleSystem sys(std::vector<TriPoint>{{0, 0}, {1, 0}, {1, -1}});
  EXPECT_EQ(countTriangles(sys), 1);
  EXPECT_EQ(countEdges(sys), 3);
}

TEST(Metrics, LineOfN) {
  for (const std::int64_t n : {2, 3, 5, 10, 50}) {
    const ParticleSystem sys = lineConfiguration(n);
    EXPECT_EQ(countEdges(sys), n - 1);
    EXPECT_EQ(countTriangles(sys), 0);
    EXPECT_EQ(countHoles(sys), 0);
    EXPECT_TRUE(isConnected(sys));
    // A line attains the maximum perimeter p_max = 2n-2 (§2.3).
    EXPECT_EQ(perimeter(sys), pMax(n));
  }
}

TEST(Metrics, HexagonRingHasOneHoleAndPerimeterTwelve) {
  const ParticleSystem sys = ringConfiguration(1);
  EXPECT_EQ(sys.size(), 6u);
  EXPECT_EQ(countEdges(sys), 6);
  EXPECT_EQ(countHoles(sys), 1);
  EXPECT_TRUE(isConnected(sys));
  // External walk 6 + hole walk 6 = 12 (§2.2's double-counting example).
  EXPECT_EQ(perimeter(sys), 12);
}

TEST(Metrics, LargerRingHoleCount) {
  const ParticleSystem sys = ringConfiguration(2);
  EXPECT_EQ(sys.size(), 12u);
  EXPECT_EQ(countHoles(sys), 1);  // 7 empty cells, one region
}

TEST(Metrics, SevenParticleHexagonIsPerfect) {
  const ParticleSystem sys = spiralConfiguration(7);
  EXPECT_EQ(countEdges(sys), 12);
  EXPECT_EQ(countTriangles(sys), 6);
  EXPECT_EQ(countHoles(sys), 0);
  EXPECT_EQ(perimeter(sys), 6);
  EXPECT_EQ(pMin(7), 6);
}

TEST(Metrics, DisconnectedDetected) {
  const ParticleSystem sys(std::vector<TriPoint>{{0, 0}, {3, 3}});
  EXPECT_FALSE(isConnected(sys));
}

TEST(Metrics, EdgeTrianglePerimeterIdentities) {
  // Lemma 2.3: e = 3n - p - 3 and Lemma 2.4: t = 2n - p - 2 for connected
  // hole-free configurations, over random instances.
  rng::Random rng(314159);
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t n = 2 + static_cast<std::int64_t>(rng.below(40));
    const ParticleSystem sys = randomHoleFree(n, rng);
    ASSERT_TRUE(isConnected(sys));
    ASSERT_EQ(countHoles(sys), 0);
    const std::int64_t e = countEdges(sys);
    const std::int64_t t = countTriangles(sys);
    const std::int64_t p = perimeter(sys);
    EXPECT_EQ(e, 3 * n - p - 3);
    EXPECT_EQ(t, 2 * n - p - 2);
  }
}

TEST(Metrics, PerimeterBounds) {
  // Lemma 2.1 (p ≥ √n) and p ≤ p_max over random hole-free configs.
  rng::Random rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n = 2 + static_cast<std::int64_t>(rng.below(60));
    const ParticleSystem sys = randomHoleFree(n, rng);
    const std::int64_t p = perimeter(sys);
    EXPECT_GE(static_cast<double>(p) + 1e-9, std::sqrt(static_cast<double>(n)));
    EXPECT_LE(p, pMax(n));
    EXPECT_GE(p, pMin(n));
  }
}

TEST(Metrics, PMinFormulaSmallValues) {
  // ⌈√(12n−3)⌉ − 3 spot checks.
  EXPECT_EQ(pMin(1), 0);
  EXPECT_EQ(pMin(2), 2);
  EXPECT_EQ(pMin(3), 3);
  EXPECT_EQ(pMin(7), 6);
  EXPECT_EQ(pMin(19), 12);  // two full hexagon rings
  EXPECT_EQ(pMin(37), 18);  // three full rings
}

TEST(Metrics, SpiralAttainsPMinEverywhere) {
  for (std::int64_t n = 1; n <= 600; ++n) {
    const ParticleSystem sys = spiralConfiguration(n);
    ASSERT_TRUE(isConnected(sys)) << n;
    ASSERT_EQ(countHoles(sys), 0) << n;
    ASSERT_EQ(perimeter(sys), pMin(n)) << "spiral not optimal at n=" << n;
  }
}

TEST(Metrics, GraphDiameter) {
  EXPECT_EQ(graphDiameter(lineConfiguration(10)), 9);
  EXPECT_EQ(graphDiameter(spiralConfiguration(7)), 2);
}

TEST(Metrics, SummarizeAgreesWithPieces) {
  rng::Random rng(55);
  const ParticleSystem sys = randomConnected(30, rng);
  const ConfigSummary s = summarize(sys);
  EXPECT_EQ(s.particles, 30);
  EXPECT_EQ(s.edges, countEdges(sys));
  EXPECT_EQ(s.triangles, countTriangles(sys));
  EXPECT_EQ(s.holes, countHoles(sys));
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.perimeter, perimeter(sys));
  EXPECT_NEAR(s.perimeterRatio,
              static_cast<double>(s.perimeter) / static_cast<double>(pMin(30)),
              1e-12);
}

// --- shapes ---

TEST(Shapes, SpiralCellsAreDistinctAndContiguous) {
  const std::vector<TriPoint> cells = spiralCells(64);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const ParticleSystem prefix(
        std::vector<TriPoint>(cells.begin(), cells.begin() +
                              static_cast<long>(i)));
    ASSERT_TRUE(isConnected(prefix)) << "prefix " << i;
  }
}

TEST(Shapes, RandomConnectedIsConnected) {
  rng::Random rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const ParticleSystem sys = randomConnected(50, rng);
    EXPECT_EQ(sys.size(), 50u);
    EXPECT_TRUE(isConnected(sys));
  }
}

TEST(Shapes, RandomDendriteHasLargePerimeter) {
  rng::Random rng(2);
  const ParticleSystem sys = randomDendrite(60, rng);
  EXPECT_TRUE(isConnected(sys));
  EXPECT_EQ(countHoles(sys), 0);
  // Dendrites are tree-like: perimeter close to the maximum.
  EXPECT_GT(perimeter(sys), (3 * pMax(60)) / 4);
}

// --- canonical forms ---

TEST(Canonical, TranslationInvariance) {
  const std::vector<TriPoint> base{{0, 0}, {1, 0}, {0, 1}};
  std::vector<TriPoint> shifted;
  for (const TriPoint p : base) shifted.push_back(p + TriPoint{17, -9});
  EXPECT_EQ(canonicalKeyFromPoints(base), canonicalKeyFromPoints(shifted));
}

TEST(Canonical, DistinguishesRotations) {
  // Configurations differing by rotation are distinct (§2.2).
  const std::vector<TriPoint> horizontal{{0, 0}, {1, 0}, {2, 0}};
  const std::vector<TriPoint> diagonal{{0, 0}, {0, 1}, {0, 2}};
  EXPECT_NE(canonicalKeyFromPoints(horizontal),
            canonicalKeyFromPoints(diagonal));
}

TEST(Canonical, PointsAreNormalizedAndSorted) {
  const std::vector<TriPoint> canon =
      canonicalPoints(std::vector<TriPoint>{{5, 7}, {4, 8}, {6, 7}});
  EXPECT_EQ(canon.front().y, 0);
  std::int32_t minX = canon[0].x;
  for (const TriPoint p : canon) minX = std::min(minX, p.x);
  EXPECT_EQ(minX, 0);
  for (std::size_t i = 1; i < canon.size(); ++i) {
    EXPECT_TRUE(canon[i - 1].y < canon[i].y ||
                (canon[i - 1].y == canon[i].y && canon[i - 1].x < canon[i].x));
  }
}

// --- serialization ---

TEST(Serialize, RoundTrip) {
  rng::Random rng(7);
  const ParticleSystem sys = randomConnected(25, rng);
  const ParticleSystem back = fromText(toText(sys));
  EXPECT_TRUE(sys.sameArrangement(back));
}

TEST(Serialize, HandlesNegativesAndWhitespace) {
  const ParticleSystem sys = fromText("  -3,4   5,-6 \n 0,0 ");
  EXPECT_EQ(sys.size(), 3u);
  EXPECT_TRUE(sys.occupied({-3, 4}));
  EXPECT_TRUE(sys.occupied({5, -6}));
  EXPECT_TRUE(sys.occupied({0, 0}));
}

TEST(Serialize, MalformedInputThrows) {
  EXPECT_THROW(fromText("1;2"), ContractViolation);
  EXPECT_THROW(fromText("1,2 3"), ContractViolation);
  EXPECT_THROW(fromText("x,y"), ContractViolation);
}

}  // namespace
}  // namespace sops::system
