#include "system/shapes.hpp"

#include "lattice/direction.hpp"
#include "system/metrics.hpp"

namespace sops::system {

namespace {
using lattice::Direction;
using lattice::kAllDirections;
using lattice::neighbor;
using lattice::offset;
}  // namespace

ParticleSystem lineConfiguration(std::int64_t n) {
  SOPS_REQUIRE(n >= 1, "lineConfiguration: n >= 1");
  std::vector<TriPoint> points;
  points.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    points.push_back({static_cast<std::int32_t>(i), 0});
  }
  return ParticleSystem(points);
}

std::vector<TriPoint> spiralCells(std::int64_t n) {
  SOPS_REQUIRE(n >= 1, "spiralCells: n >= 1");
  std::vector<TriPoint> cells;
  cells.reserve(static_cast<std::size_t>(n));
  cells.push_back({0, 0});
  std::int32_t radius = 1;
  std::vector<TriPoint> ring;
  while (static_cast<std::int64_t>(cells.size()) < n) {
    // Ring of the given radius, counterclockwise from the corner (0,-r),
    // but emitted starting one past the corner: the first emitted cell is a
    // side cell touching *two* cells of the previous ring, which is what
    // keeps every prefix at the Harary–Harborth minimum perimeter (the
    // corner-first order loses a contact edge and is off by one).
    ring.clear();
    TriPoint cell{0, -radius};
    for (const Direction d : kAllDirections) {
      for (std::int32_t step = 0; step < radius; ++step) {
        ring.push_back(cell);
        cell += offset(d);
      }
    }
    for (std::size_t i = 1; i <= ring.size(); ++i) {
      cells.push_back(ring[i % ring.size()]);
      if (static_cast<std::int64_t>(cells.size()) == n) return cells;
    }
    ++radius;
  }
  return cells;
}

ParticleSystem spiralConfiguration(std::int64_t n) {
  const std::vector<TriPoint> cells = spiralCells(n);
  return ParticleSystem(cells);
}

ParticleSystem ringConfiguration(std::int32_t radius) {
  SOPS_REQUIRE(radius >= 1, "ringConfiguration: radius >= 1");
  std::vector<TriPoint> cells;
  cells.reserve(static_cast<std::size_t>(6) * radius);
  TriPoint cell{0, -radius};
  for (const Direction d : kAllDirections) {
    for (std::int32_t step = 0; step < radius; ++step) {
      cells.push_back(cell);
      cell += offset(d);
    }
  }
  return ParticleSystem(cells);
}

ParticleSystem randomConnected(std::int64_t n, rng::Random& rng) {
  SOPS_REQUIRE(n >= 1, "randomConnected: n >= 1");
  ParticleSystem sys;
  sys.add({0, 0});
  while (static_cast<std::int64_t>(sys.size()) < n) {
    const std::size_t host = rng.below(static_cast<std::uint32_t>(sys.size()));
    const Direction d =
        lattice::directionFromIndex(static_cast<int>(rng.below(6)));
    const TriPoint spot = neighbor(sys.position(host), d);
    if (!sys.occupied(spot)) sys.add(spot);
  }
  return sys;
}

ParticleSystem randomHoleFree(std::int64_t n, rng::Random& rng) {
  SOPS_REQUIRE(n >= 1, "randomHoleFree: n >= 1");
  ParticleSystem sys;
  sys.add({0, 0});
  while (static_cast<std::int64_t>(sys.size()) < n) {
    const std::size_t host = rng.below(static_cast<std::uint32_t>(sys.size()));
    const Direction d =
        lattice::directionFromIndex(static_cast<int>(rng.below(6)));
    const TriPoint spot = neighbor(sys.position(host), d);
    if (sys.occupied(spot)) continue;
    const std::size_t id = sys.add(spot);
    if (countHoles(sys) != 0) sys.remove(id);
  }
  return sys;
}

std::vector<std::uint8_t> alternatingClasses(std::size_t n, int classes) {
  SOPS_REQUIRE(classes > 0, "alternatingClasses: classes must be positive");
  std::vector<std::uint8_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] =
        static_cast<std::uint8_t>(i % static_cast<std::size_t>(classes));
  }
  return labels;
}

ParticleSystem perforatedBlob(std::int64_t n, std::int64_t holes,
                              rng::Random& rng) {
  SOPS_REQUIRE(n >= 7, "perforatedBlob: n >= 7");
  SOPS_REQUIRE(holes >= 0, "perforatedBlob: holes >= 0");
  const std::vector<TriPoint> cells = spiralCells(n + holes);
  ParticleSystem sys(cells);

  // Interior cells (all six neighbors occupied) that are pairwise
  // non-adjacent: deleting each opens an independent unit hole.
  std::vector<std::size_t> interior;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    if (sys.neighborCount(sys.position(id)) == 6) interior.push_back(id);
  }
  rng.shuffle(interior);

  std::vector<std::size_t> removed;  // particle ids, in removal order
  for (const std::size_t id : interior) {
    if (static_cast<std::int64_t>(removed.size()) == holes) break;
    const TriPoint candidate = sys.position(id);
    bool adjacentToRemoved = false;
    for (const std::size_t r : removed) {
      const TriPoint q = sys.position(r);
      adjacentToRemoved |= lattice::areAdjacent(candidate, q) || candidate == q;
    }
    if (adjacentToRemoved) continue;
    removed.push_back(id);
  }
  for (std::size_t k = 0; k < removed.size(); ++k) {
    // remove() is swap-with-last: a pending removal of the last particle
    // follows it into the freed id.
    const std::size_t id = removed[k];
    const std::size_t last = sys.size() - 1;
    sys.remove(id);
    for (std::size_t j = k + 1; j < removed.size(); ++j) {
      if (removed[j] == last) removed[j] = id;
    }
  }
  // Trim any surplus from the blob boundary (non-cut cells) if we could
  // not place all requested holes.
  while (static_cast<std::int64_t>(sys.size()) > n) {
    bool trimmed = false;
    for (std::size_t id = sys.size(); id-- > 0 && !trimmed;) {
      const TriPoint p = sys.position(id);
      if (sys.neighborCount(p) == 6) continue;
      sys.remove(id);
      if (isConnected(sys)) {
        trimmed = true;
      } else {
        sys.add(p);
      }
    }
    SOPS_REQUIRE(trimmed, "perforatedBlob: could not trim to size");
  }
  SOPS_ENSURE(isConnected(sys), "perforatedBlob: disconnected result");
  return sys;
}

ParticleSystem randomDendrite(std::int64_t n, rng::Random& rng) {
  SOPS_REQUIRE(n >= 1, "randomDendrite: n >= 1");
  ParticleSystem sys;
  sys.add({0, 0});
  std::int64_t attemptsSinceGrowth = 0;
  while (static_cast<std::int64_t>(sys.size()) < n) {
    const std::size_t host = rng.below(static_cast<std::uint32_t>(sys.size()));
    const Direction d =
        lattice::directionFromIndex(static_cast<int>(rng.below(6)));
    const TriPoint spot = neighbor(sys.position(host), d);
    if (!sys.occupied(spot) && sys.neighborCount(spot) == 1) {
      sys.add(spot);
      attemptsSinceGrowth = 0;
    } else if (++attemptsSinceGrowth > 64 * n) {
      // Dendritic growth can stall on unlucky geometry; fall back to any
      // single-neighbor frontier cell found by scanning.
      for (const TriPoint p : sys.positions()) {
        for (const Direction dir : kAllDirections) {
          const TriPoint q = neighbor(p, dir);
          if (!sys.occupied(q) && sys.neighborCount(q) == 1) {
            sys.add(q);
            attemptsSinceGrowth = 0;
            break;
          }
        }
        if (attemptsSinceGrowth == 0) break;
      }
      SOPS_REQUIRE(attemptsSinceGrowth == 0, "randomDendrite stalled");
    }
  }
  return sys;
}

}  // namespace sops::system
