// Brute-force cross-checks of the bitboard configuration metrics against
// their independent oracles: countHoles against the complement flood
// (analyzeComplement), isConnected against a plain BFS written here, and
// perimeter against the boundary tracer (perimeterTraced).  Every subset of
// a small box is tried, on a flat window and on tiles straddling a tile
// corner, plus every Redelmeier animal up to n = 8.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "enumeration/redelmeier.hpp"
#include "system/boundary.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"
#include "system/shapes.hpp"

namespace sops::system {
namespace {

using lattice::TriPoint;

/// Connectivity of a point set by BFS over an ordered set — no bitboard.
bool referenceConnected(const std::vector<TriPoint>& points) {
  if (points.size() <= 1) return true;
  std::set<std::pair<std::int32_t, std::int32_t>> unseen;
  for (const TriPoint p : points) unseen.insert({p.x, p.y});
  std::deque<TriPoint> frontier{points.front()};
  unseen.erase({points.front().x, points.front().y});
  while (!frontier.empty()) {
    const TriPoint p = frontier.front();
    frontier.pop_front();
    for (const lattice::Direction d : lattice::kAllDirections) {
      const TriPoint q = lattice::neighbor(p, d);
      if (unseen.erase({q.x, q.y}) != 0) frontier.push_back(q);
    }
  }
  return unseen.empty();
}

/// Checks one configuration against every oracle; returns the number of
/// mismatches so the exhaustive loops stop reporting after the first few.
int mismatches(const ParticleSystem& sys, const std::vector<TriPoint>& points,
               std::uint32_t label) {
  int bad = 0;
  const int holes = countHoles(sys);
  const int oracleHoles = analyzeComplement(sys).holeCount;
  if (holes != oracleHoles) {
    ADD_FAILURE() << "configuration " << label << ": countHoles " << holes
                  << " vs analyzeComplement " << oracleHoles;
    ++bad;
  }
  const bool connected = isConnected(sys);
  if (connected != referenceConnected(points)) {
    ADD_FAILURE() << "configuration " << label << ": isConnected "
                  << connected;
    ++bad;
  }
  const ConfigSummary summary = summarize(sys);
  if (summary.holes != holes || summary.connected != connected ||
      summary.edges != countEdges(sys) ||
      summary.triangles != countTriangles(sys)) {
    ADD_FAILURE() << "configuration " << label << ": summarize disagrees";
    ++bad;
  }
  if (connected) {
    const std::int64_t p = perimeter(sys);
    const std::int64_t traced = perimeterTraced(sys);
    if (p != traced || summary.perimeter != p) {
      ADD_FAILURE() << "configuration " << label << ": perimeter " << p
                    << " vs traced " << traced;
      ++bad;
    }
  }
  return bad;
}

/// Runs mismatches() on every nonempty subset of the width × height axial
/// box anchored at (x0, y0).
void checkEverySubset(std::int32_t x0, std::int32_t y0, int width, int height,
                      bool tiled) {
  const int cells = width * height;
  int bad = 0;
  for (std::uint32_t subset = 1; subset < (1u << cells) && bad < 5;
       ++subset) {
    std::vector<TriPoint> points;
    for (int i = 0; i < cells; ++i) {
      if ((subset >> i) & 1u) {
        points.push_back({x0 + i % width, y0 + i / width});
      }
    }
    ParticleSystem sys(points);
    if (tiled) sys.forceTiledForTest();
    bad += mismatches(sys, points, subset);
  }
}

TEST(MetricsOracle, EverySubsetOfAFourByFourBox) {
  checkEverySubset(0, 0, 4, 4, /*tiled=*/false);
}

TEST(MetricsOracle, EverySubsetOfABoxStraddlingATileCorner) {
  // x ∈ [1022, 1026], y ∈ [254, 256]: the box crosses the tile column
  // boundary x = 1024 and the tile row boundary y = 256, so neighbour
  // gathers take the seam path on all four tiles around the corner.
  static_assert(BitGrid::kTileWidth == 1024 && BitGrid::kTileHeight == 256);
  checkEverySubset(1022, 254, 5, 3, /*tiled=*/true);
}

TEST(MetricsOracle, RedelmeierAnimalsUpToEight) {
  for (int n = 1; n <= 8; ++n) {
    int bad = 0;
    std::uint32_t index = 0;
    enumeration::redelmeierEnumerate(n, [&](std::span<const TriPoint> cells) {
      const std::vector<TriPoint> points(cells.begin(), cells.end());
      if (bad < 5) bad += mismatches(ParticleSystem(points), points, index);
      ++index;
    });
    EXPECT_EQ(bad, 0) << "n=" << n;
  }
}

TEST(MetricsOracle, SparseConfigurationCostsItsParticlesNotItsWindow) {
  // The bounding box spans ~10^12 cells; a window flood would never
  // finish.  The bitboard walk touches two particles and their tiles.
  const ParticleSystem sys(
      std::vector<TriPoint>{{0, 0}, {1 << 20, 1 << 20}});
  ASSERT_TRUE(sys.grid().tiled());
  EXPECT_EQ(countHoles(sys), 0);
  EXPECT_FALSE(isConnected(sys));
  const ConfigSummary summary = summarize(sys);
  EXPECT_FALSE(summary.connected);
  EXPECT_EQ(summary.holes, 0);
  EXPECT_EQ(summary.edges, 0);
}

TEST(MetricsOracle, TiledLinePerimeterMatchesTracer) {
  constexpr std::int64_t kN = 100000;
  const ParticleSystem sys = lineConfiguration(kN);
  ASSERT_TRUE(sys.grid().tiled());
  ASSERT_TRUE(isConnected(sys));
  EXPECT_EQ(countHoles(sys), 0);
  EXPECT_EQ(perimeter(sys), perimeterTraced(sys));
  EXPECT_EQ(perimeter(sys), pMax(kN));
}

}  // namespace
}  // namespace sops::system
