#include "system/particle_system.hpp"

namespace sops::system {

namespace {
/// Base margin around the bounding box when (re)building the dense window
/// (BitGrid::rebuild adds span/4 proportional headroom on top).
constexpr std::int64_t kGridBaseMargin = 32;
/// Tile headroom allocated around a particle that escapes the interior of
/// a tiled grid: > kInteriorMargin + 1 so one ensureRegion() buys several
/// further moves in the same direction before the next directory touch.
constexpr std::int64_t kGridEnsureMargin = 8;
}  // namespace

void ParticleSystem::regrowGrid() {
  // rebuild() promotes oversized bounding boxes to the tiled backend, so
  // it only fails (false) on an empty point set, which disables the grid.
  (void)grid_.rebuild(positions_, kGridBaseMargin);
}

ParticleSystem::ParticleSystem(std::span<const TriPoint> points)
    : positions_(points.begin(), points.end()) {
  regrowGrid();  // throws on a duplicate point
}

std::size_t ParticleSystem::add(TriPoint p) {
  SOPS_REQUIRE(!occupied(p), "add() target already occupied");
  positions_.push_back(p);
  if (grid_.coversInterior(p)) {
    grid_.set(p);
  } else if (grid_.tiled()) {
    // A tiled grid never rebuilds from scratch: grow the directory around
    // the new particle and set its bit.
    grid_.ensureRegion(p, kGridEnsureMargin);
    grid_.set(p);
  } else {
    regrowGrid();
  }
  return positions_.size() - 1;
}

void ParticleSystem::remove(std::size_t particle) {
  SOPS_REQUIRE(particle < positions_.size(), "remove(): bad particle id");
  grid_.clear(positions_[particle]);
  positions_[particle] = positions_.back();
  positions_.pop_back();
}

void ParticleSystem::moveParticle(std::size_t particle, TriPoint to) {
  SOPS_REQUIRE(particle < positions_.size(), "moveParticle(): bad particle id");
  const TriPoint from = positions_[particle];
  if (from == to) return;
  SOPS_REQUIRE(!occupied(to), "moveParticle(): target occupied");
  positions_[particle] = to;
  // Regrow as soon as a particle reaches the 2-cell interior margin, so
  // ring/target queries around any particle stay safely in-window for
  // occupiedNear()'s unchecked word load.
  if (grid_.coversInterior(to)) {
    grid_.clear(from);
    grid_.set(to);
  } else if (grid_.tiled()) {
    // A tiled grid only ever grows: allocating the few tiles around the
    // escape restores the interior invariant without re-deriving any
    // geometry, so shadow planes stay incrementally valid.  Never
    // reached from a sharded parallel phase — its deferral predicate
    // requires coversInteriorBy(pos, margin + 1).
    grid_.ensureRegion(to, kGridEnsureMargin);
    grid_.clear(from);
    grid_.set(to);
  } else {
    regrowGrid();  // positions_ already reflects the move
  }
  SOPS_DASSERT(grid_.test(to));
  SOPS_DASSERT(!grid_.test(from));
}

void ParticleSystem::restoreWindowGeometry(std::int64_t originX,
                                           std::int64_t originY,
                                           std::uint64_t width,
                                           std::uint64_t height) {
  if (positions_.empty()) return;
  grid_.rebuildExact(positions_, originX, originY, width, height);
}

void ParticleSystem::restoreTiledGeometry(
    std::span<const std::uint64_t> tileKeys) {
  grid_.rebuildTiledExact(positions_, tileKeys);
}

void ParticleSystem::forceTiledForTest() {
  SOPS_REQUIRE(!positions_.empty(), "forceTiledForTest() needs particles");
  grid_.rebuildTiled(positions_, kGridBaseMargin);
}

bool ParticleSystem::sameArrangement(const ParticleSystem& other) const {
  if (size() != other.size()) return false;
  for (const TriPoint p : positions_) {
    if (!other.occupied(p)) return false;
  }
  return true;
}

}  // namespace sops::system
