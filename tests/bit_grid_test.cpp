// Tests for the dense bitboard occupancy grid (system/bit_grid) and its
// integration into ParticleSystem: on both backends (flat window and
// tiled directory) every occupancy query must agree with a naive recount
// from positions(), along whole chain trajectories, across window
// regrowth, and through add()/remove().
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/scenario_models.hpp"
#include "lattice/edge_ring.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"
#include "system/shapes.hpp"

namespace sops::system {
namespace {

using lattice::TriPoint;

enum class Backend { Flat, Tiled };

const char* backendName(Backend backend) {
  return backend == Backend::Flat ? "flat" : "tiled";
}

/// Checks every grid-backed query around every particle — occupied,
/// occupiedNear on the neighbor and ring cells, ringMask for all six
/// directions, neighborMask — against a naive recount from positions().
void expectQueriesMatchNaiveRecount(const ParticleSystem& sys) {
  std::unordered_set<std::uint64_t> occupied;
  for (const TriPoint p : sys.positions()) occupied.insert(lattice::pack(p));
  const auto naive = [&occupied](TriPoint p) {
    return occupied.contains(lattice::pack(p));
  };
  for (const TriPoint p : sys.positions()) {
    ASSERT_TRUE(sys.occupied(p));
    std::uint8_t neighbors = 0;
    for (const auto d : lattice::kAllDirections) {
      const int di = lattice::index(d);
      const TriPoint q = lattice::neighbor(p, d);
      ASSERT_EQ(sys.occupied(q), naive(q));
      ASSERT_EQ(sys.occupiedNear(q), naive(q));
      if (naive(q)) neighbors = static_cast<std::uint8_t>(neighbors | 1u << di);
      std::uint8_t ring = 0;
      for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
        const TriPoint c = p + lattice::kEdgeRingOffsets[di][idx];
        ASSERT_EQ(sys.occupiedNear(c), naive(c));
        if (naive(c)) ring = static_cast<std::uint8_t>(ring | 1u << idx);
      }
      ASSERT_EQ(sys.ringMask(p, d), ring) << "direction " << di;
    }
    ASSERT_EQ(sys.neighborMask(p), neighbors);
  }
}

TEST(BitGrid, SetTestClearRoundTrip) {
  BitGrid grid;
  const std::vector<TriPoint> points{{0, 0}, {3, -2}, {-5, 7}};
  ASSERT_TRUE(grid.rebuild(points, 4));
  EXPECT_TRUE(grid.enabled());
  for (const TriPoint p : points) EXPECT_TRUE(grid.test(p));
  EXPECT_FALSE(grid.test({1, 1}));
  grid.clear({3, -2});
  EXPECT_FALSE(grid.test({3, -2}));
  grid.set({3, -2});
  EXPECT_TRUE(grid.test({3, -2}));
}

TEST(BitGrid, OutOfWindowCellsReadUnoccupied) {
  BitGrid grid;
  ASSERT_TRUE(grid.rebuild(std::vector<TriPoint>{{0, 0}}, 2));
  EXPECT_FALSE(grid.test({100, 0}));
  EXPECT_FALSE(grid.test({-100, 0}));
  EXPECT_FALSE(grid.test({0, 100}));
  // Coordinates that would overflow naive 32-bit window arithmetic.
  EXPECT_FALSE(grid.test({INT32_MAX, INT32_MIN}));
  EXPECT_FALSE(grid.test({INT32_MIN, INT32_MAX}));
}

TEST(BitGrid, RebuildCapPromotesToTiled) {
  BitGrid grid;
  // Bounding box ~2^30 × 2^30 cells: far over kMaxWords for a flat
  // window, so rebuild allocates tiles around the occupied cells instead
  // of giving up.
  const std::vector<TriPoint> sparse{{0, 0}, {1 << 30, 1 << 30}};
  EXPECT_TRUE(grid.rebuild(sparse, 0));
  EXPECT_TRUE(grid.enabled());
  EXPECT_TRUE(grid.tiled());
  EXPECT_TRUE(grid.test({0, 0}));
  EXPECT_TRUE(grid.test({1 << 30, 1 << 30}));
  EXPECT_FALSE(grid.test({5, 5}));
  EXPECT_FALSE(grid.test({(1 << 30) + 1, 1 << 30}));
}

TEST(BitGrid, EmptyRebuildDisables) {
  BitGrid grid;
  EXPECT_FALSE(grid.rebuild(std::vector<TriPoint>{}, 4));
  EXPECT_FALSE(grid.enabled());
}

TEST(ParticleSystemGrid, DenseAndSparseAgreeOnConstruction) {
  const ParticleSystem sys = spiralConfiguration(64);
  EXPECT_TRUE(sys.grid().enabled());
  ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys));
}

TEST(ParticleSystemGrid, MovesKeepViewsInSync) {
  ParticleSystem sys = lineConfiguration(10);
  sys.moveParticle(0, {0, 5});
  EXPECT_TRUE(sys.occupied({0, 5}));
  EXPECT_FALSE(sys.occupied({0, 0}));
  EXPECT_EQ(sys.position(0), (TriPoint{0, 5}));
  ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys));
}

TEST(ParticleSystemGrid, AddRemoveKeepViewsInSync) {
  for (const Backend backend : {Backend::Flat, Backend::Tiled}) {
    SCOPED_TRACE(backendName(backend));
    ParticleSystem sys;
    EXPECT_FALSE(sys.occupied({0, 0}));  // an empty system reads empty
    const std::size_t a = sys.add({0, 0});
    if (backend == Backend::Tiled) sys.forceTiledForTest();
    EXPECT_TRUE(sys.occupied({0, 0}));
    ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys));
    // Grow a short line, then add a particle far enough away to regrow a
    // flat window (or allocate fresh tiles), checking after every add.
    for (std::int32_t x = 1; x < 8; ++x) {
      sys.add({x, 0});
      ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys));
    }
    sys.add({3000, 700});
    ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys));
    EXPECT_STREQ(sys.regimeName(),
                 backend == Backend::Flat ? "dense-flat" : "dense-tiled");
    sys.remove(a);  // swap-with-last: particle 0 becomes the far one
    EXPECT_FALSE(sys.occupied({0, 0}));
    EXPECT_TRUE(sys.occupied({3000, 700}));
    EXPECT_EQ(sys.size(), 8u);
    EXPECT_EQ(sys.position(0), (TriPoint{3000, 700}));
    ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys));
    while (sys.size() > 1) {
      sys.remove(sys.size() - 1);
      ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys));
    }
  }
}

TEST(ParticleSystemGrid, RegrowthOnEscapeKeepsAnswersExact) {
  ParticleSystem sys = lineConfiguration(5);
  // March a particle far outside the initial window, forcing regrowth.
  TriPoint p = sys.position(0);
  for (int i = 0; i < 500; ++i) {
    const TriPoint next{p.x, p.y + 1};
    sys.moveParticle(0, next);
    p = next;
    ASSERT_TRUE(sys.occupied(p));
    ASSERT_FALSE(sys.occupied({p.x, p.y - 1}));
  }
  EXPECT_TRUE(sys.grid().enabled());
  EXPECT_TRUE(sys.grid().covers(p));
}

TEST(ParticleSystemGrid, HugeBoundingBoxPromotesToTiled) {
  const std::vector<TriPoint> far{{0, 0}, {1 << 28, 0}};
  const ParticleSystem sys(far);
  EXPECT_TRUE(sys.grid().enabled());
  EXPECT_TRUE(sys.grid().tiled());
  EXPECT_STREQ(sys.regimeName(), "dense-tiled");
  EXPECT_TRUE(sys.occupied({0, 0}));
  EXPECT_TRUE(sys.occupied({1 << 28, 0}));
  EXPECT_FALSE(sys.occupied({5, 5}));
  EXPECT_EQ(sys.position(1), (TriPoint{1 << 28, 0}));
}

TEST(ParticleSystemGrid, NeighborQueriesMatchSparseAlongTrajectory) {
  // Drive a real chain on each backend and cross-check every grid query
  // against a naive recount after every step.
  for (const Backend backend : {Backend::Flat, Backend::Tiled}) {
    SCOPED_TRACE(backendName(backend));
    ParticleSystem start = lineConfiguration(30);
    if (backend == Backend::Tiled) start.forceTiledForTest();
    core::ChainOptions options;
    options.lambda = 4.0;
    core::CompressionEngine chain(start, core::CompressionModel(options), 1603);
    ASSERT_EQ(chain.system().grid().tiled(), backend == Backend::Tiled);
    for (int step = 0; step < 8000; ++step) {
      chain.step();
      const ParticleSystem& sys = chain.system();
      ASSERT_NO_FATAL_FAILURE(expectQueriesMatchNaiveRecount(sys))
          << "step " << step;
    }
    EXPECT_EQ(chain.system().grid().tiled(), backend == Backend::Tiled);
  }
}

}  // namespace
}  // namespace sops::system
