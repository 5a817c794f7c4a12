#ifndef SOPS_SYSTEM_METRICS_HPP
#define SOPS_SYSTEM_METRICS_HPP

/// \file metrics.hpp
/// Configuration measurements from paper §2.2–2.3: edges e(σ), triangles
/// t(σ), perimeter p(σ), holes, connectivity, and the extremal perimeter
/// values p_min(n), p_max(n).
///
/// Every count comes from O(n) word probes on the occupancy BitGrid, never
/// from the bounding-box window's area.  One depth-first walk gathers each
/// particle's 6-neighbour mask once, giving e (half the degree sum), t (a
/// third of the occupied consecutive neighbour pairs) and the number of
/// components C; its visited plane has the occupancy grid's geometry and
/// hence its memory.  Two identities turn those into the rest:
///
///   - Euler's formula on the induced plane graph, n − e + (t + h + 1) =
///     1 + C, gives holes h = C − n + e − t: every bounded face that is not
///     a unit triangle encloses exactly one hole.
///   - For a connected configuration p = 2e − 3t.  Hole-free, this is
///     Lemmas 2.3–2.4 (e = 3n − p − 3, t = 2n − p − 2); with holes it equals
///     perimeterFromCounts' p = 3n − e − 3 + 3h, the exterior-angle count
///     applied to each hole boundary.
///
/// Two independent oracles stay on the slow path and are what the tests
/// check these counts against: analyzeComplement() floods the unoccupied
/// complement of the bounding-box window, and boundary.hpp's tracers walk
/// the boundary cycles (perimeterTraced()).

#include <cstdint>
#include <vector>

#include "system/particle_system.hpp"
#include "util/flat_hash.hpp"

namespace sops::system {

/// Number of lattice edges with both endpoints occupied (e(σ)).
[[nodiscard]] std::int64_t countEdges(const ParticleSystem& sys);

/// Number of triangular faces of G∆ with all three corners occupied (t(σ)).
[[nodiscard]] std::int64_t countTriangles(const ParticleSystem& sys);

/// True iff the configuration graph (occupied vertices, induced edges) is
/// connected.  The empty system counts as connected.  O(n).
[[nodiscard]] bool isConnected(const ParticleSystem& sys);

/// Axis-aligned bounding box in axial coordinates.
struct BoundingBox {
  std::int32_t minX = 0;
  std::int32_t minY = 0;
  std::int32_t maxX = 0;
  std::int32_t maxY = 0;
};
[[nodiscard]] BoundingBox boundingBox(const ParticleSystem& sys);

/// Decomposition of the unoccupied complement (within a margin-1 window
/// around the configuration) into the exterior region and finite holes.
/// Costs the window's area, not n: the oracle for countHoles(), and what
/// hexBoundaryCycles() labels hole cycles with.
struct ComplementRegions {
  /// Number of holes (finite maximal connected unoccupied regions, §2.2).
  int holeCount = 0;
  /// Region id per unoccupied cell in the window: kExteriorRegion for the
  /// infinite region, 1..holeCount for holes.
  util::FlatMap64<std::int32_t> regionOf;
  BoundingBox window;
  static constexpr std::int32_t kExteriorRegion = 0;
};
[[nodiscard]] ComplementRegions analyzeComplement(const ParticleSystem& sys);

/// Number of holes of the configuration, C − n + e − t (0 when empty).
[[nodiscard]] int countHoles(const ParticleSystem& sys);

/// Perimeter p(σ) of a connected configuration (sum over all boundary
/// walks, cut edges counted twice — see §2.2), as 2e − 3t.  Precondition:
/// connected, n ≥ 1.
[[nodiscard]] std::int64_t perimeter(const ParticleSystem& sys);

/// Perimeter given precomputed pieces (hot-ish paths that already know e/h).
[[nodiscard]] constexpr std::int64_t perimeterFromCounts(
    std::int64_t n, std::int64_t edges, std::int64_t holes) noexcept {
  return 3 * n - edges - 3 + 3 * holes;
}

/// Minimum possible perimeter of n particles: ⌈√(12n−3)⌉ − 3 (achieved by
/// hexagonal spirals; Harary–Harborth via the hex-lattice duality of Fig 9).
[[nodiscard]] std::int64_t pMin(std::int64_t n);

/// Maximum possible perimeter of a connected hole-free configuration:
/// 2n − 2 (spanning trees of G∆ with no induced triangles, §2.3).
[[nodiscard]] constexpr std::int64_t pMax(std::int64_t n) noexcept {
  return 2 * n - 2;
}

/// Graph diameter of the configuration (max hop distance between particles
/// through occupied vertices).  O(n²) — intended for small systems and
/// diagnostics only.
[[nodiscard]] int graphDiameter(const ParticleSystem& sys);

/// One-stop summary used by benches and examples: one walk serves every
/// field.
struct ConfigSummary {
  std::int64_t particles = 0;
  std::int64_t edges = 0;
  std::int64_t triangles = 0;
  std::int64_t holes = 0;
  std::int64_t perimeter = 0;
  bool connected = false;
  /// p(σ) / p_min(n): the compression ratio α of Definition 2.2.
  double perimeterRatio = 0.0;
};
[[nodiscard]] ConfigSummary summarize(const ParticleSystem& sys);

}  // namespace sops::system

#endif  // SOPS_SYSTEM_METRICS_HPP
