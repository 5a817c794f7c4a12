#include "system/metrics.hpp"

#include <bit>
#include <cmath>
#include <deque>
#include <limits>

#include "lattice/direction.hpp"

namespace sops::system {

namespace {

using lattice::Direction;
using lattice::kAllDirections;
using lattice::neighbor;
using lattice::pack;

// Directions whose offsets cover each undirected edge exactly once (their
// opposites cover the other orientation).
constexpr Direction kPositiveDirs[3] = {Direction::East, Direction::NorthEast,
                                        Direction::SouthEast};

/// Occupied consecutive neighbour pairs of a 6-bit neighbour mask: bits i
/// and i+1 (mod 6) are directions 60° apart, so each such pair closes a
/// unit triangle at the mask's centre.
[[nodiscard]] constexpr int triangleCorners(std::uint8_t around) noexcept {
  const auto next =
      static_cast<unsigned>((around >> 1) | ((around & 1u) << 5));
  return std::popcount(static_cast<unsigned>(around) & next);
}

/// The three counts every configuration metric derives from, taken in one
/// depth-first walk over the occupancy grid: one neighbour mask per
/// particle gives its degree and triangle corners, and the walk's restarts
/// count components.
struct Census {
  std::int64_t components = 0;
  std::int64_t edges = 0;
  std::int64_t triangles = 0;
};

[[nodiscard]] Census census(const ParticleSystem& sys) {
  Census result;
  if (sys.empty()) return result;
  const BitGrid& occupancy = sys.grid();
  // Every walked cell is a particle, so the interior-margin invariant makes
  // both grids' unchecked neighbour gathers valid; allocateLike gives the
  // visited plane the same window or tile directory, hence the same memory.
  BitGrid visited;
  visited.allocateLike(occupancy);
  std::vector<TriPoint> stack;
  std::int64_t degrees = 0;
  std::int64_t corners = 0;
  std::size_t reached = 0;
  for (const TriPoint root : sys.positions()) {
    if (reached == sys.size()) break;  // no component left to find
    if (visited.testUnchecked(root)) continue;
    ++result.components;
    visited.set(root);
    stack.push_back(root);
    while (!stack.empty()) {
      const TriPoint p = stack.back();
      stack.pop_back();
      ++reached;
      const std::uint8_t around = occupancy.neighborMaskUnchecked(p);
      degrees += std::popcount(static_cast<unsigned>(around));
      corners += triangleCorners(around);
      auto fresh = static_cast<unsigned>(
          around & ~visited.neighborMaskUnchecked(p));
      while (fresh != 0) {
        const int i = std::countr_zero(fresh);
        fresh &= fresh - 1;
        const TriPoint q = p + lattice::offset(lattice::directionFromIndex(i));
        visited.set(q);
        stack.push_back(q);
      }
    }
  }
  // Each edge is seen from both ends, each triangle from its three corners.
  result.edges = degrees / 2;
  result.triangles = corners / 3;
  return result;
}

/// Euler's formula on the induced plane graph: n − e + (t + holes + 1) =
/// 1 + C, since every bounded face that is not a unit triangle holds
/// exactly one hole.
[[nodiscard]] std::int64_t holesOf(const Census& c, std::int64_t n) noexcept {
  return c.components - n + c.edges - c.triangles;
}

/// p = 2e − 3t for a connected configuration (Lemmas 2.3–2.4 plus one
/// hole term per hole, which the Euler count above makes exact).
[[nodiscard]] std::int64_t perimeterOf(const Census& c) noexcept {
  return 2 * c.edges - 3 * c.triangles;
}

}  // namespace

std::int64_t countEdges(const ParticleSystem& sys) {
  std::int64_t edges = 0;
  for (const TriPoint p : sys.positions()) {
    for (const Direction d : kPositiveDirs) {
      edges += sys.occupied(neighbor(p, d)) ? 1 : 0;
    }
  }
  return edges;
}

std::int64_t countTriangles(const ParticleSystem& sys) {
  std::int64_t triangles = 0;
  for (const TriPoint p : sys.positions()) {
    const bool east = sys.occupied(neighbor(p, Direction::East));
    if (!east) continue;
    // Upward face {p, p+E, p+NE} and downward face {p, p+E, p+SE}: p is the
    // unique corner seeing the other two at (E, NE) resp. (E, SE), so each
    // face is counted exactly once.
    triangles += sys.occupied(neighbor(p, Direction::NorthEast)) ? 1 : 0;
    triangles += sys.occupied(neighbor(p, Direction::SouthEast)) ? 1 : 0;
  }
  return triangles;
}

bool isConnected(const ParticleSystem& sys) {
  return census(sys).components <= 1;
}

BoundingBox boundingBox(const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.empty(), "boundingBox of empty system");
  BoundingBox box{std::numeric_limits<std::int32_t>::max(),
                  std::numeric_limits<std::int32_t>::max(),
                  std::numeric_limits<std::int32_t>::min(),
                  std::numeric_limits<std::int32_t>::min()};
  for (const TriPoint p : sys.positions()) {
    box.minX = std::min(box.minX, p.x);
    box.minY = std::min(box.minY, p.y);
    box.maxX = std::max(box.maxX, p.x);
    box.maxY = std::max(box.maxY, p.y);
  }
  return box;
}

ComplementRegions analyzeComplement(const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.empty(), "analyzeComplement of empty system");
  ComplementRegions result;
  const BoundingBox inner = boundingBox(sys);
  // Window expanded by one: its border ring is entirely unoccupied and
  // connected (axial rectangles are row/column connected), so the exterior
  // is exactly the component containing any border cell.
  const BoundingBox window{inner.minX - 1, inner.minY - 1, inner.maxX + 1,
                           inner.maxY + 1};
  result.window = window;

  const auto inWindow = [&window](TriPoint p) {
    return p.x >= window.minX && p.x <= window.maxX && p.y >= window.minY &&
           p.y <= window.maxY;
  };

  // Flood the exterior first, from a guaranteed-exterior corner.
  const auto flood = [&](TriPoint start, std::int32_t region) {
    std::deque<TriPoint> frontier;
    frontier.push_back(start);
    result.regionOf.insertOrAssign(pack(start), region);
    while (!frontier.empty()) {
      const TriPoint p = frontier.front();
      frontier.pop_front();
      for (const Direction d : kAllDirections) {
        const TriPoint q = neighbor(p, d);
        if (!inWindow(q) || sys.occupied(q)) continue;
        if (result.regionOf.contains(pack(q))) continue;
        result.regionOf.insertOrAssign(pack(q), region);
        frontier.push_back(q);
      }
    }
  };

  flood({window.minX, window.minY}, ComplementRegions::kExteriorRegion);

  // Remaining unflooded unoccupied cells are holes; label by component.
  std::int32_t nextRegion = 1;
  for (std::int32_t y = window.minY; y <= window.maxY; ++y) {
    for (std::int32_t x = window.minX; x <= window.maxX; ++x) {
      const TriPoint p{x, y};
      if (sys.occupied(p) || result.regionOf.contains(pack(p))) continue;
      flood(p, nextRegion);
      ++nextRegion;
    }
  }
  result.holeCount = nextRegion - 1;
  return result;
}

int countHoles(const ParticleSystem& sys) {
  return static_cast<int>(
      holesOf(census(sys), static_cast<std::int64_t>(sys.size())));
}

std::int64_t perimeter(const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.empty(), "perimeter of empty system");
  const Census c = census(sys);
  SOPS_REQUIRE(c.components == 1,
               "perimeter requires a connected configuration");
  return perimeterOf(c);
}

std::int64_t pMin(std::int64_t n) {
  SOPS_REQUIRE(n >= 1, "pMin requires n >= 1");
  // ceil(sqrt(12n-3)) computed exactly with an integer correction step.
  const double approx = std::sqrt(static_cast<double>(12 * n - 3));
  auto root = static_cast<std::int64_t>(approx);
  while (root * root < 12 * n - 3) ++root;
  while ((root - 1) * (root - 1) >= 12 * n - 3) --root;
  return root - 3;
}

int graphDiameter(const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.empty(), "graphDiameter of empty system");
  SOPS_REQUIRE(isConnected(sys),
               "graphDiameter requires connected configuration");
  int best = 0;
  for (const TriPoint source : sys.positions()) {
    util::FlatMap64<std::int32_t> dist(sys.size());
    std::deque<TriPoint> frontier;
    dist.insertOrAssign(pack(source), 0);
    frontier.push_back(source);
    while (!frontier.empty()) {
      const TriPoint p = frontier.front();
      frontier.pop_front();
      const std::int32_t dp = *dist.find(pack(p));
      best = std::max(best, dp);
      for (const Direction d : kAllDirections) {
        const TriPoint q = neighbor(p, d);
        if (sys.occupied(q) && !dist.contains(pack(q))) {
          dist.insertOrAssign(pack(q), dp + 1);
          frontier.push_back(q);
        }
      }
    }
  }
  return best;
}

ConfigSummary summarize(const ParticleSystem& sys) {
  ConfigSummary s;
  s.particles = static_cast<std::int64_t>(sys.size());
  if (sys.empty()) {
    s.connected = true;
    return s;
  }
  const Census c = census(sys);
  s.edges = c.edges;
  s.triangles = c.triangles;
  s.holes = holesOf(c, s.particles);
  s.connected = c.components == 1;
  if (s.connected) {
    s.perimeter = perimeterOf(c);
    const std::int64_t minimum = pMin(s.particles);
    s.perimeterRatio = minimum > 0
                           ? static_cast<double>(s.perimeter) /
                                 static_cast<double>(minimum)
                           : (s.perimeter == 0 ? 1.0 : 0.0);
  }
  return s;
}

}  // namespace sops::system
