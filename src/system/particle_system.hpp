#ifndef SOPS_SYSTEM_PARTICLE_SYSTEM_HPP
#define SOPS_SYSTEM_PARTICLE_SYSTEM_HPP

/// \file particle_system.hpp
/// A configuration of contracted particles on G∆ (paper §2.2).
///
/// This is the state type of the Markov chain M: n distinct occupied lattice
/// vertices.  It maintains two synchronized views:
///
///   - a position vector (uniform particle selection, iteration),
///   - a dense bitboard (BitGrid) answering occupied() with a single word
///     load — the hot path of every chain step (~9 queries per proposed
///     move) — as a flat window for small bounding boxes and as the tiled
///     backend beyond BitGrid::kMaxWords.
///
/// The chain's state is the set of occupied vertices, so there is no
/// cell → id map.  No move needs one: separation's swap exchanges colors
/// held in the model's shadow planes, keyed by cell.  Sequential callers
/// that need an identity now and then scan positions().
///
/// Expanded particles exist only in the amoebot layer (S7); the chain's
/// states consider contracted particles only, exactly as in the paper
/// (§3.2, footnote 2).

#include <cstdint>
#include <span>
#include <vector>

#include "lattice/edge_ring.hpp"
#include "lattice/tri_point.hpp"
#include "system/bit_grid.hpp"
#include "util/assert.hpp"

namespace sops::system {

using lattice::Direction;
using lattice::TriPoint;

class ParticleSystem {
 public:
  ParticleSystem() = default;

  /// Builds a system from distinct lattice points.  Throws ContractViolation
  /// on duplicates (the grid rejects a point whose bit is already set).
  explicit ParticleSystem(std::span<const TriPoint> points);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return positions_.empty(); }

  [[nodiscard]] TriPoint position(std::size_t particle) const {
    SOPS_DASSERT(particle < positions_.size());
    return positions_[particle];
  }

  [[nodiscard]] const std::vector<TriPoint>& positions() const noexcept {
    return positions_;
  }

  [[nodiscard]] bool occupied(TriPoint p) const noexcept {
    // One word load.  The grid invariantly covers every particle, so an
    // out-of-window cell is unoccupied by construction; an empty system's
    // disabled grid reads as empty everywhere.
    return grid_.test(p);
  }

  /// Occupancy of a cell within graph distance 2 of some particle — the
  /// target and ring cells of any proposed move qualify.  Every particle
  /// is kept ≥ BitGrid::kInteriorMargin cells inside the dense window
  /// (regrowth triggers on interior escape), so this skips the window
  /// bounds check: one word load on the hot path.  For arbitrary cells use
  /// occupied().
  [[nodiscard]] bool occupiedNear(TriPoint p) const noexcept {
    return grid_.testUnchecked(p);
  }

  /// The dense occupancy grid: a flat window for small bounding boxes,
  /// the tiled backend for large ones (disabled only while empty).
  [[nodiscard]] const BitGrid& grid() const noexcept { return grid_; }

  /// Which occupancy backend the system is running: "dense-flat" (one
  /// flat window) or "dense-tiled" (tile directory).  Surfaced through
  /// the sim facade so backend changes are loud.
  [[nodiscard]] const char* regimeName() const noexcept {
    return grid_.tiled() ? "dense-tiled" : "dense-flat";
  }

  /// Adds a particle at an unoccupied vertex; returns its id.
  std::size_t add(TriPoint p);

  /// Removes the particle with the given id (swap-with-last, so ids of other
  /// particles may change: the last particle takes over the removed id).
  void remove(std::size_t particle);

  /// Moves a particle to an unoccupied vertex (need not be adjacent; the
  /// chain enforces adjacency itself).  Concurrent workers may move
  /// *disjoint* particles whose reads and writes touch disjoint grid words
  /// (the sharded runners' stripe discipline): a move writes only its own
  /// position slot and two grid bits.
  void moveParticle(std::size_t particle, TriPoint to);

  /// Number of occupied neighbors of vertex p (0..6).  p itself does not
  /// count even if occupied.
  [[nodiscard]] int neighborCount(TriPoint p) const noexcept {
    int count = 0;
    for (const Direction d : lattice::kAllDirections) {
      count += occupied(lattice::neighbor(p, d)) ? 1 : 0;
    }
    return count;
  }

  /// 8-bit occupancy mask of the ring cells of the move (ℓ, d) — see
  /// lattice/edge_ring.hpp for the cell order (it matches core::ringCell).
  /// Precondition: ℓ is an occupied particle position, so the grid's
  /// interior-margin invariant makes the dense gather branch-free.
  [[nodiscard]] std::uint8_t ringMask(TriPoint l, Direction d) const noexcept {
    return grid_.ringMaskUnchecked(l, lattice::index(d));
  }

  /// 6-bit occupancy mask of p's neighborhood; bit i is direction index i.
  [[nodiscard]] std::uint8_t neighborMask(TriPoint p) const noexcept {
    std::uint8_t mask = 0;
    for (const Direction d : lattice::kAllDirections) {
      if (occupied(lattice::neighbor(p, d))) {
        mask = static_cast<std::uint8_t>(mask | (1u << index(d)));
      }
    }
    return mask;
  }

  /// Structural equality as a *set* of occupied vertices (particle ids and
  /// ordering are irrelevant, matching the paper's notion of arrangement).
  [[nodiscard]] bool sameArrangement(const ParticleSystem& other) const;

  /// Snapshot-restore hook: forces the dense window to the exact geometry
  /// a snapshot recorded (the sharded runners' trajectories depend on it;
  /// regrowGrid()'s proportional margin would re-derive a different one).
  /// An empty system keeps its disabled grid.
  void restoreWindowGeometry(std::int64_t originX, std::int64_t originY,
                             std::uint64_t width, std::uint64_t height);

  /// Snapshot-restore hook for the tiled backend: rebuilds the tile
  /// directory EXACTLY as a v3 snapshot recorded it (the sharded runners'
  /// deferral predicates are functions of the allocated-tile set).
  void restoreTiledGeometry(std::span<const std::uint64_t> tileKeys);

  /// Forces the tiled backend on a system whose bounding box would
  /// otherwise fit a flat window, so tests can compare the two backends
  /// on small configurations.
  void forceTiledForTest();

 private:
  /// Rebuilds the dense grid from positions_: a flat window (with
  /// proportional margin so rebuilds stay rare as the configuration
  /// drifts) when the bounding box fits BitGrid::kMaxWords, the tiled
  /// backend beyond that; disabled while the system is empty.
  void regrowGrid();

  std::vector<TriPoint> positions_;
  BitGrid grid_;
};

}  // namespace sops::system

#endif  // SOPS_SYSTEM_PARTICLE_SYSTEM_HPP
