#include "amoebot/amoebot_system.hpp"

namespace sops::amoebot {

namespace {
/// Base window margin, matching ParticleSystem's dense-window policy
/// (BitGrid::rebuild adds span/4 proportional headroom on top).
constexpr std::int64_t kPlaneBaseMargin = 32;
/// Tile headroom allocated around a cell that escapes the interior of a
/// tiled plane: > kInteriorMargin + 1 so one ensureRegion() buys several
/// further expansions in the same direction before the next directory
/// touch (mirrors ParticleSystem's policy).
constexpr std::int64_t kPlaneEnsureMargin = 8;
}  // namespace

AmoebotSystem::AmoebotSystem(const system::ParticleSystem& initial,
                             rng::Random& rng) {
  SOPS_REQUIRE(initial.size() > 0, "AmoebotSystem requires particles");
  particles_.reserve(initial.size());
  for (std::size_t id = 0; id < initial.size(); ++id) {
    Particle p;
    p.tail = initial.position(id);
    p.head = p.tail;
    p.orientationOffset = static_cast<std::uint8_t>(rng.below(6));
    p.mirrored = rng.bernoulli(0.5);
    particles_.push_back(p);
  }
  regrowPlanes();
}

std::vector<TriPoint> AmoebotSystem::occupiedCells(
    std::span<const Particle> particles) {
  std::vector<TriPoint> cells;
  cells.reserve(2 * particles.size());
  for (const Particle& p : particles) {
    cells.push_back(p.tail);
    if (p.expanded) cells.push_back(p.head);
  }
  return cells;
}

void AmoebotSystem::regrowPlanes() {
  // rebuild() promotes oversized bounding boxes to the tiled backend, so
  // it only fails on an empty cell set — excluded by the constructor.
  const bool built =
      occ_.rebuild(occupiedCells(particles_), kPlaneBaseMargin);
  SOPS_DASSERT(built);
  (void)built;
  mirrorPlanes();
}

void AmoebotSystem::mirrorPlanes() {
  heads_.allocateLike(occ_);
  expanded_.allocateLike(occ_);
  for (const Particle& p : particles_) {
    if (!p.expanded) continue;
    heads_.set(p.head);
    expanded_.set(p.tail);
    expanded_.set(p.head);
  }
}

std::size_t AmoebotSystem::expandedCount() const noexcept {
  std::size_t count = 0;
  for (const Particle& p : particles_) count += p.expanded ? 1 : 0;
  return count;
}

bool AmoebotSystem::expandedParticleAdjacent(TriPoint cell,
                                             std::size_t self) const {
  std::uint8_t mask;
  if (expanded_.coversInterior(cell)) {
    mask = expanded_.neighborMaskUnchecked(cell);
  } else {
    mask = 0;
    for (const Direction d : lattice::kAllDirections) {
      if (expanded_.test(lattice::neighbor(cell, d))) {
        mask = static_cast<std::uint8_t>(mask | (1u << index(d)));
      }
    }
  }
  if (mask == 0) return false;
  const Particle& s = particles_[self];
  if (s.expanded) {
    // The only expanded cells belonging to `self` are its own tail and
    // head; drop their direction bits if they happen to be adjacent.
    if (const auto d = lattice::directionBetween(cell, s.tail)) {
      mask = static_cast<std::uint8_t>(mask & ~(1u << index(*d)));
    }
    if (const auto d = lattice::directionBetween(cell, s.head)) {
      mask = static_cast<std::uint8_t>(mask & ~(1u << index(*d)));
    }
  }
  return mask != 0;
}

bool AmoebotSystem::occupiedExcludingHeads(TriPoint cell,
                                           std::size_t self) const {
  if (!occ_.test(cell)) return false;
  if (heads_.test(cell)) return false;
  // Of self's cells only the tail can still match here: a contracted
  // self has head == tail, and an expanded self's head carries the
  // heads-plane bit just tested.
  return cell != particles_[self].tail;
}

bool AmoebotSystem::expandedAdjacentToMovePair(std::size_t id) const {
  const Particle& p = particles_[id];
  SOPS_DASSERT(p.expanded);
  // Of the twelve neighbor probes around (tail, head), the only cells of
  // particle `id` itself are the two ends of the expansion edge: mask
  // the head's direction bit at the tail and vice versa.
  const std::uint32_t tailMask =
      expanded_.neighborMaskUnchecked(p.tail) & ~(1u << p.expandDir);
  const std::uint32_t headMask =
      expanded_.neighborMaskUnchecked(p.head) &
      ~(1u << ((p.expandDir + 3) % 6));
  return (tailMask | headMask) != 0;
}

std::uint8_t AmoebotSystem::nStarRingMask(std::size_t id) const {
  const Particle& p = particles_[id];
  SOPS_DASSERT(p.expanded);
  const int di = p.expandDir;
  return static_cast<std::uint8_t>(occ_.ringMaskUnchecked(p.tail, di) &
                                   ~heads_.ringMaskUnchecked(p.tail, di));
}

void AmoebotSystem::expand(std::size_t id, Direction d) {
  SOPS_REQUIRE(id < particles_.size(), "expand: bad id");
  Particle& p = particles_[id];
  SOPS_REQUIRE(!p.expanded, "expand: particle already expanded");
  const TriPoint target = lattice::neighbor(p.tail, d);
  SOPS_REQUIRE(!occupied(target), "expand: target occupied");
  p.head = target;
  p.expanded = true;
  p.expandDir = static_cast<std::uint8_t>(index(d));
  // Keep every particle cell interior so unchecked gathers stay licensed.
  // Tiled planes only grow: allocating around the escape up front keeps
  // all three directories mirrored (heads_/expanded_ must cover every
  // occ_ tile so stripe workers never allocate); flat windows rebuild
  // below, after the bits are placed.  Neither path triggers during a
  // sharded parallel phase: the runner only activates shardSafe()
  // particles there, and defers the rest to its single-threaded sweep.
  if (occ_.tiled() && !occ_.coversInterior(target)) {
    occ_.ensureRegion(target, kPlaneEnsureMargin);
    heads_.ensureTilesOf(occ_);
    expanded_.ensureTilesOf(occ_);
  }
  occ_.set(target);
  heads_.set(target);
  expanded_.set(p.tail);
  expanded_.set(target);
  if (!occ_.coversInterior(target)) regrowPlanes();
}

void AmoebotSystem::contractToHead(std::size_t id) {
  SOPS_REQUIRE(id < particles_.size(), "contractToHead: bad id");
  Particle& p = particles_[id];
  SOPS_REQUIRE(p.expanded, "contractToHead: particle not expanded");
  occ_.clear(p.tail);
  heads_.clear(p.head);
  expanded_.clear(p.tail);
  expanded_.clear(p.head);
  p.tail = p.head;
  p.expanded = false;
}

void AmoebotSystem::contractBack(std::size_t id) {
  SOPS_REQUIRE(id < particles_.size(), "contractBack: bad id");
  Particle& p = particles_[id];
  SOPS_REQUIRE(p.expanded, "contractBack: particle not expanded");
  occ_.clear(p.head);
  heads_.clear(p.head);
  expanded_.clear(p.tail);
  expanded_.clear(p.head);
  p.head = p.tail;
  p.expanded = false;
}

namespace {
// Particle bool flags packed into one byte for the snapshot payload.
constexpr std::uint8_t kFlagExpanded = 1u << 0;
constexpr std::uint8_t kFlagMemory = 1u << 1;
constexpr std::uint8_t kFlagMirrored = 1u << 2;
constexpr std::uint8_t kFlagCrashed = 1u << 3;
constexpr std::uint8_t kFlagByzantine = 1u << 4;
}  // namespace

void AmoebotSystem::saveState(system::SnapshotWriter& w) const {
  w.u64(particles_.size());
  for (const Particle& p : particles_) {
    w.i64(p.tail.x);
    w.i64(p.tail.y);
    w.i64(p.head.x);
    w.i64(p.head.y);
    std::uint8_t flags = 0;
    if (p.expanded) flags |= kFlagExpanded;
    if (p.flag) flags |= kFlagMemory;
    if (p.mirrored) flags |= kFlagMirrored;
    if (p.crashed) flags |= kFlagCrashed;
    if (p.byzantine) flags |= kFlagByzantine;
    w.u8(flags);
    w.u8(p.orientationOffset);
    w.u8(p.expandDir);
  }
  system::writeGridGeometry(w, occ_);
}

void AmoebotSystem::restoreState(system::SnapshotReader& r) {
  const std::uint64_t count = r.u64();
  SOPS_REQUIRE(count == particles_.size(),
               "snapshot: particle count does not match the configuration "
               "this system was constructed from");
  std::vector<Particle> particles;
  particles.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Particle p;
    p.tail.x = r.coord("particle tail x");
    p.tail.y = r.coord("particle tail y");
    p.head.x = r.coord("particle head x");
    p.head.y = r.coord("particle head y");
    const std::uint8_t flags = r.u8();
    p.expanded = (flags & kFlagExpanded) != 0;
    p.flag = (flags & kFlagMemory) != 0;
    p.mirrored = (flags & kFlagMirrored) != 0;
    p.crashed = (flags & kFlagCrashed) != 0;
    p.byzantine = (flags & kFlagByzantine) != 0;
    p.orientationOffset = r.u8();
    SOPS_REQUIRE(p.orientationOffset < 6, "snapshot: bad orientation offset");
    p.expandDir = r.u8();
    SOPS_REQUIRE(p.expandDir < 6, "snapshot: bad expansion direction");
    SOPS_REQUIRE(p.expanded || p.head == p.tail,
                 "snapshot: contracted particle with head != tail");
    particles.push_back(p);
  }
  const system::GridGeometry geometry = system::readGridGeometry(r);

  // Build the occupancy plane aside: rebuildExact throws on overlapping
  // cells or a cell outside the interior, and a throw must leave this
  // system exactly as it was.
  system::BitGrid occ;
  if (geometry.tiled) {
    occ.rebuildTiledExact(occupiedCells(particles), geometry.tileKeys);
  } else {
    occ.rebuildExact(occupiedCells(particles), geometry.originX,
                     geometry.originY, geometry.width, geometry.height);
  }
  particles_ = std::move(particles);
  occ_ = std::move(occ);
  mirrorPlanes();
}

system::ParticleSystem AmoebotSystem::tailConfiguration() const {
  std::vector<TriPoint> tails;
  tails.reserve(particles_.size());
  for (const Particle& p : particles_) tails.push_back(p.tail);
  return system::ParticleSystem(tails);
}

}  // namespace sops::amoebot
