#ifndef SOPS_CORE_SCENARIO_MODELS_HPP
#define SOPS_CORE_SCENARIO_MODELS_HPP

/// \file scenario_models.hpp
/// The three shipped weight models for BiasedChainEngine.
///
///   CompressionModel  w(σ) = λ^{e(σ)}            (the paper's chain M)
///   SeparationModel   w(σ) = λ^{e(σ)} γ^{hom(σ)}  (two colors, [9])
///   AlignmentModel    w(σ) = λ^{e(σ)} κ^{ali(σ)}  (6-state orientations,
///                                                  à la Kedia–Oh–Randall)
///
/// hom(σ) counts monochromatic induced edges, ali(σ) counts induced edges
/// whose endpoints carry the same lattice orientation.  Both extra terms
/// are *local*: a movement move changes them only through the 8-cell ring
/// of the move, and an auxiliary move (color swap / orientation rotation)
/// only through the 6-cell neighborhoods of the touched particles.  The
/// models therefore keep **shadow bit planes** — one BitGrid per color /
/// orientation class, allocated with the exact geometry of the system's
/// occupancy window (BitGrid::allocateLike) — so every Δhom / Δali is one
/// or two word gathers, and every Metropolis threshold is a load from an
/// 11/13/21-entry power table built with the shared core::lambdaPower.
/// No std::pow and no hash probe runs on the accept path.  The planes
/// follow the system's grid through both of its backends (flat window
/// and tiled directory).  Separation's two color planes are its only
/// record of the colors — a swap flips four bits and needs no partner
/// identity; alignment keeps its per-particle orientations beside its
/// planes.  tests/biased_engine_test.cpp pins the separation
/// model to the reference chain (extensions::SeparationChain in
/// oracles/separation_chain.hpp, which keeps its own hash occupancy) draw
/// for draw.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/properties.hpp"
#include "system/bit_grid.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"
#include "util/flat_hash.hpp"

namespace sops::core {

/// K shadow bit planes kept geometry-aligned with a ParticleSystem's
/// occupancy grid.  sync() detects geometry changes by fingerprinting the
/// grid — origin/size plus the grid's geometryVersion().  A flat-window
/// change lays the planes out afresh — O(n), amortized by the system's own
/// O(log drift) rebuild schedule — building the new geometry beside the
/// old planes, so the class callback may still read the old ones.  A
/// *tiled* grid never rebuilds, it only allocates tiles, and plane bits key
/// absolute coordinates — so a fingerprint mismatch while both sides are
/// tiled means "new tiles only": the planes grow their directories to match
/// (ensureTilesOf) and keep their content.
template <std::size_t K>
class ShadowPlanes {
 public:
  /// True when the dense planes mirror `grid` exactly (same geometry, no
  /// rebuild pending) — the licence for the unchecked gathers below.
  [[nodiscard]] bool syncedWith(const system::BitGrid& grid) const noexcept {
    return dense_ && grid.enabled() &&
           grid.geometryVersion() == gridVersion_ &&
           grid.originX() == originX_ && grid.originY() == originY_ &&
           grid.width() == width_ && grid.height() == height_;
  }

  /// Ensures the planes mirror sys.grid(); classOf(particle) ∈ [0, K) maps
  /// each particle to its plane and is only called while the planes are
  /// laid out afresh, with the old planes still in place.  Precondition:
  /// sys is non-empty (an empty system has no grid to mirror).
  template <typename ClassOf>
  void sync(const system::ParticleSystem& sys, ClassOf&& classOf) {
    const system::BitGrid& grid = sys.grid();
    if (syncedWith(grid)) return;
    if (dense_ && grid.tiled() && planes_[0].tiled()) {
      // Tiled growth: the directory gained tiles but no bit moved (tiles
      // are absolutely anchored), so the planes just follow the directory.
      for (auto& plane : planes_) plane.ensureTilesOf(grid);
      fingerprint(grid);
      return;
    }
    std::array<system::BitGrid, K> next;
    for (auto& plane : next) plane.allocateLike(grid);
    for (std::size_t i = 0; i < sys.size(); ++i) {
      next[static_cast<std::size_t>(classOf(i))].set(sys.position(i));
    }
    planes_ = std::move(next);
    fingerprint(grid);
    dense_ = true;
  }

  /// Forces the next sync() to lay the planes out from classOf alone —
  /// used after a model deserialize replaces the per-particle classes
  /// wholesale (the grid geometry alone cannot detect that).
  void invalidate() noexcept { dense_ = false; }

  [[nodiscard]] system::BitGrid& plane(std::size_t k) noexcept {
    return planes_[k];
  }
  [[nodiscard]] const system::BitGrid& plane(std::size_t k) const noexcept {
    return planes_[k];
  }

 private:
  void fingerprint(const system::BitGrid& grid) noexcept {
    originX_ = grid.originX();
    originY_ = grid.originY();
    width_ = grid.width();
    height_ = grid.height();
    gridVersion_ = grid.geometryVersion();
  }

  std::array<system::BitGrid, K> planes_;
  std::int64_t originX_ = 0;
  std::int64_t originY_ = 0;
  std::uint64_t width_ = 0;
  std::uint64_t height_ = 0;
  std::uint64_t gridVersion_ = 0;
  bool dense_ = false;
};

/// Induced edges whose endpoints share a class — the exact hom(σ) / ali(σ)
/// recount behind both models' observables.  Neighbor classes come from a
/// cell → class map built for this one recount from the particles alone,
/// so it is independent of the models' shadow planes.
[[nodiscard]] inline std::int64_t sameClassEdges(
    const system::ParticleSystem& sys, std::span<const std::uint8_t> classes) {
  constexpr Direction kPositive[3] = {Direction::East, Direction::NorthEast,
                                      Direction::SouthEast};
  util::FlatMap64<std::uint8_t> classAt(sys.size());
  for (std::size_t id = 0; id < sys.size(); ++id) {
    classAt.insert(lattice::pack(sys.position(id)), classes[id]);
  }
  std::int64_t count = 0;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    const TriPoint p = sys.position(id);
    for (const Direction d : kPositive) {
      const std::uint8_t* other =
          classAt.find(lattice::pack(lattice::neighbor(p, d)));
      if (other != nullptr && *other == classes[id]) ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Compression: w(σ) = λ^e.  The factor path compiles away; the engine step
// is the paper's chain M, draw-for-draw the frozen core::ReferenceKernel
// (oracles/reference_kernel.hpp; golden-tested).

class CompressionModel {
 public:
  static constexpr bool kUniformWeight = true;
  static constexpr bool kHasAuxMove = false;
  /// A movement move reads the 8-cell ring (|Δx| ≤ 2) and writes ℓ, ℓ'
  /// (|Δx| ≤ 1); there is no pair move, so 2 columns of halo suffice.
  static constexpr int kInteractionRadius = 2;

  explicit CompressionModel(ChainOptions options) : options_(options) {}

  [[nodiscard]] const ChainOptions& chainOptions() const noexcept {
    return options_;
  }
  void attach(const system::ParticleSystem&) {}
  double movementFactor(const system::ParticleSystem&, std::size_t, TriPoint,
                        Direction, std::uint8_t) {
    return 1.0;
  }
  void onMoved(const system::ParticleSystem&, std::size_t, TriPoint, TriPoint) {
  }

  /// Snapshot hooks (Model contract): compression carries no aux state —
  /// options come from the spec and the decision table is rebuilt.
  void serialize(system::SnapshotWriter&, const system::ParticleSystem&) const {
  }
  void deserialize(system::SnapshotReader&) {}

 private:
  ChainOptions options_;
};

// ---------------------------------------------------------------------------
// Separation: w(σ) = λ^e γ^hom over two colors; movement moves carry the
// particle's color, and a color swap across a heterochromatic edge is the
// auxiliary move.  Reproduces the reference extensions::SeparationChain's
// kernel (oracles/separation_chain.hpp) exactly — same draw order, same
// thresholds via lambdaPower — on the fast path.

class SeparationModel {
 public:
  struct Options {
    double lambda = 4.0;  ///< compression bias (edges)
    double gamma = 4.0;   ///< homogeneity bias (monochromatic edges)
    bool enableSwaps = true;
    double swapProbability = 0.5;  ///< mixture weight of the swap move
  };

  static constexpr bool kUniformWeight = false;
  static constexpr bool kHasAuxMove = true;
  /// The swap touches a partner one cell away (|Δx| ≤ 1) and gathers the
  /// full ring of the shared edge around it (|Δx| ≤ 2 from the activated
  /// particle), and flips the partner's color plane bit — so the sharded
  /// runner must keep one extra column of clearance beyond the movement
  /// radius for pair moves frozen mid-phase by the halo rules.
  static constexpr int kInteractionRadius = 3;
  /// Movement changes hom through ≤5 before-ring and ≤5 after-ring cells.
  static constexpr int kMaxMoveDelta = 5;
  /// A swap changes hom through ≤5 neighbors of each endpoint.
  static constexpr int kMaxSwapDelta = 10;

  SeparationModel(Options options, std::vector<std::uint8_t> colors)
      : options_(options), particleCount_(colors.size()),
        startColors_(std::move(colors)) {
    SOPS_REQUIRE(options_.lambda > 0.0 && options_.gamma > 0.0,
                 "biases must be positive");
    SOPS_REQUIRE(
        options_.swapProbability >= 0.0 && options_.swapProbability < 1.0,
        "swap probability must be in [0, 1)");
    for (const std::uint8_t c : startColors_) {
      SOPS_REQUIRE(c <= 1, "colors are 0 or 1");
    }
    for (int delta = -kMaxMoveDelta; delta <= kMaxMoveDelta; ++delta) {
      movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)] =
          lambdaPower(options_.gamma, delta);
    }
    for (int delta = -kMaxSwapDelta; delta <= kMaxSwapDelta; ++delta) {
      swapPow_[static_cast<std::size_t>(delta + kMaxSwapDelta)] =
          lambdaPower(options_.gamma, delta);
    }
  }

  [[nodiscard]] ChainOptions chainOptions() const noexcept {
    ChainOptions chain;
    chain.lambda = options_.lambda;
    return chain;
  }

  /// The first attach after construction or deserialize lays the planes
  /// out from the start colors and drops them; from then on the color-1
  /// plane is the only record of the colors.
  void attach(const system::ParticleSystem& sys) {
    SOPS_REQUIRE(particleCount_ == sys.size(), "one color per particle");
    syncPlanes(sys);
    startColors_ = {};
  }

  /// γ^{Δhom} for the movement (l → l+d) of `particle`.  Dense: one ring
  /// gather of the particle's own color plane, two popcounts, one table
  /// load.
  double movementFactor(const system::ParticleSystem& sys, std::size_t,
                        TriPoint l, Direction d, std::uint8_t /*ringOcc*/) {
    syncPlanes(sys);
    const std::uint8_t ringSame =
        planes_.plane(colorAtUnchecked(l))
            .ringMaskUnchecked(l, lattice::index(d));
    const int delta =
        std::popcount(static_cast<unsigned>(ringSame & kAfterMask)) -
        std::popcount(static_cast<unsigned>(ringSame & kBeforeMask));
    return movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)];
  }

  void onMoved(const system::ParticleSystem& sys, std::size_t, TriPoint from,
               TriPoint to) {
    // The bit moves on the pre-move planes, then sync() lays them out
    // afresh if the grid changed: a flat window regrows only when `to`
    // leaves its interior, so `to` is still inside the old window, and a
    // tiled set() allocates its tile.  The new layout reads each color off
    // the old planes, so it carries every bit over.
    system::BitGrid& plane = planes_.plane(colorAtUnchecked(from));
    plane.clear(from);
    plane.set(to);
    syncPlanes(sys);
  }

  [[nodiscard]] bool auxEnabled() const noexcept {
    return options_.enableSwaps;
  }
  [[nodiscard]] double auxProbability() const noexcept {
    return options_.swapProbability;
  }

  /// Color swap across a heterochromatic edge, accepted with
  /// min(1, γ^{Δhom}).  Dense path: both colors are word loads, and Δhom
  /// comes from *two edge-ring gathers* — N(p)∪N(q)\{p,q} is exactly the
  /// 8-cell ring of the edge (p, q), the two color planes partition its
  /// occupancy, and kBeforeMask/kAfterMask split it into N(p)\{q} and
  /// N(q)\{p}, so the heterochromatic p—q edge is excluded by
  /// construction.  The colors live in the planes, so an accepted swap
  /// flips four bits and never needs the partner's identity.
  /// (particle, draw6) are the engine's hoisted draws; draw6 is the
  /// direction of the candidate edge.
  AuxOutcome auxStep(system::ParticleSystem& sys, rng::Random& rng,
                     std::size_t particle, int draw6) {
    const Direction d = lattice::directionFromIndex(draw6);
    const TriPoint p = sys.position(particle);
    const TriPoint q = lattice::neighbor(p, d);
    syncPlanes(sys);
    if (!sys.occupiedNear(q)) return AuxOutcome::Skipped;
    const std::uint8_t colorP = colorAtUnchecked(p);
    const std::uint8_t colorQ = colorAtUnchecked(q);
    if (colorQ == colorP) return AuxOutcome::Skipped;
    const std::uint8_t ringP =
        planes_.plane(colorP).ringMaskUnchecked(p, lattice::index(d));
    const std::uint8_t ringQ =
        planes_.plane(colorQ).ringMaskUnchecked(p, lattice::index(d));
    const int before =
        std::popcount(static_cast<unsigned>(ringP & kBeforeMask)) +
        std::popcount(static_cast<unsigned>(ringQ & kAfterMask));
    const int after =
        std::popcount(static_cast<unsigned>(ringQ & kBeforeMask)) +
        std::popcount(static_cast<unsigned>(ringP & kAfterMask));
    const double threshold =
        swapPow_[static_cast<std::size_t>(after - before + kMaxSwapDelta)];
    if (threshold >= 1.0 || rng.uniform() < threshold) {
      planes_.plane(colorP).clear(p);
      planes_.plane(colorQ).set(p);
      planes_.plane(colorQ).clear(q);
      planes_.plane(colorP).set(q);
      return AuxOutcome::Accepted;
    }
    return AuxOutcome::Rejected;
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Particle i's color, read off the color-1 plane at its position (or
  /// the start colors before the first attach).
  [[nodiscard]] std::vector<std::uint8_t> colors(
      const system::ParticleSystem& sys) const {
    if (!startColors_.empty()) return startColors_;
    std::vector<std::uint8_t> colors(sys.size());
    for (std::size_t i = 0; i < sys.size(); ++i) {
      colors[i] = planes_.plane(1).test(sys.position(i)) ? 1 : 0;
    }
    return colors;
  }

  /// hom(σ): exact recount of monochromatic induced edges.
  [[nodiscard]] std::int64_t homogeneousEdges(
      const system::ParticleSystem& sys) const {
    return sameClassEdges(sys, colors(sys));
  }

  /// Snapshot hooks: the colors are the model's only evolving state (the
  /// power tables are derived; options come from the spec).  deserialize
  /// keeps the read colors as start colors, and the next attach lays the
  /// planes out from them.
  void serialize(system::SnapshotWriter& w,
                 const system::ParticleSystem& sys) const {
    w.bytes(colors(sys));
  }
  void deserialize(system::SnapshotReader& r) {
    std::vector<std::uint8_t> colors = r.bytes();
    SOPS_REQUIRE(colors.size() == particleCount_,
                 "snapshot: color count does not match the particle count");
    for (const std::uint8_t c : colors) {
      SOPS_REQUIRE(c <= 1, "snapshot: colors are 0 or 1");
    }
    startColors_ = std::move(colors);
    planes_.invalidate();
  }

 private:
  [[nodiscard]] std::uint8_t colorAtUnchecked(TriPoint p) const noexcept {
    return planes_.plane(1).testUnchecked(p) ? 1 : 0;
  }

  void syncPlanes(const system::ParticleSystem& sys) {
    planes_.sync(sys, [&](std::size_t i) {
      return startColors_.empty() ? colorAtUnchecked(sys.position(i))
                                  : startColors_[i];
    });
  }

  Options options_;
  std::size_t particleCount_ = 0;
  /// Colors the next attach lays the planes out from; empty afterwards.
  std::vector<std::uint8_t> startColors_;
  ShadowPlanes<2> planes_;
  std::array<double, 2 * kMaxMoveDelta + 1> movePow_{};
  std::array<double, 2 * kMaxSwapDelta + 1> swapPow_{};
};

// ---------------------------------------------------------------------------
// Alignment: w(σ) = λ^e κ^ali over per-particle orientations in {0..5} —
// a mobile 6-state Potts/clock model (ferromagnetic for κ > 1), the
// engine's analogue of the local stochastic alignment algorithms of
// Kedia–Oh–Randall.  Movement moves carry the particle's orientation; the
// auxiliary move re-samples one particle's orientation uniformly and
// Metropolis-filters with κ^{Δali}.

class AlignmentModel {
 public:
  struct Options {
    double lambda = 4.0;  ///< compression bias (edges)
    double kappa = 4.0;   ///< alignment bias (equal-orientation edges)
    bool enableRotations = true;
    double rotationProbability = 0.5;  ///< mixture weight of the rotation move
  };

  static constexpr bool kUniformWeight = false;
  static constexpr bool kHasAuxMove = true;
  static constexpr int kOrientations = lattice::kNumDirections;
  /// The rotation itself only reads p's 6-neighborhood (|Δx| ≤ 1), but it
  /// rewrites how p reads to *other* particles' alignment gathers; keep
  /// the same pair-move clearance as the swap so a rotation of a particle
  /// frozen in a halo band can never sit inside a concurrent stripe's
  /// read set.
  static constexpr int kInteractionRadius = 3;
  static constexpr int kMaxMoveDelta = 5;
  /// A rotation changes ali through ≤6 neighbors losing the old class and
  /// ≤6 gaining the new one.
  static constexpr int kMaxRotationDelta = 6;

  AlignmentModel(Options options, std::vector<std::uint8_t> orientations)
      : options_(options), orientations_(std::move(orientations)) {
    SOPS_REQUIRE(options_.lambda > 0.0 && options_.kappa > 0.0,
                 "biases must be positive");
    SOPS_REQUIRE(options_.rotationProbability >= 0.0 &&
                     options_.rotationProbability < 1.0,
                 "rotation probability must be in [0, 1)");
    for (const std::uint8_t o : orientations_) {
      SOPS_REQUIRE(o < kOrientations, "orientations are 0..5");
    }
    for (int delta = -kMaxMoveDelta; delta <= kMaxMoveDelta; ++delta) {
      movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)] =
          lambdaPower(options_.kappa, delta);
    }
    for (int delta = -kMaxRotationDelta; delta <= kMaxRotationDelta; ++delta) {
      rotationPow_[static_cast<std::size_t>(delta + kMaxRotationDelta)] =
          lambdaPower(options_.kappa, delta);
    }
  }

  [[nodiscard]] ChainOptions chainOptions() const noexcept {
    ChainOptions chain;
    chain.lambda = options_.lambda;
    return chain;
  }

  void attach(const system::ParticleSystem& sys) {
    SOPS_REQUIRE(orientations_.size() == sys.size(),
                 "one orientation per particle");
    syncPlanes(sys);
  }

  /// κ^{Δali} for the movement (l → l+d) of `particle`: one ring gather of
  /// the particle's own orientation plane.
  double movementFactor(const system::ParticleSystem& sys, std::size_t particle,
                        TriPoint l, Direction d, std::uint8_t /*ringOcc*/) {
    syncPlanes(sys);
    const std::uint8_t ringSame =
        planes_.plane(orientations_[particle])
            .ringMaskUnchecked(l, lattice::index(d));
    const int delta =
        std::popcount(static_cast<unsigned>(ringSame & kAfterMask)) -
        std::popcount(static_cast<unsigned>(ringSame & kBeforeMask));
    return movePow_[static_cast<std::size_t>(delta + kMaxMoveDelta)];
  }

  void onMoved(const system::ParticleSystem& sys, std::size_t particle,
               TriPoint from, TriPoint to) {
    // sync() first: a stale fingerprint means the grid rebuilt (flat) or
    // grew tiles.  After a flat relayout the planes already hold post-move
    // positions, so the clear/set below are no-ops; after tiled growth
    // they are the move's one real update.
    syncPlanes(sys);
    system::BitGrid& plane = planes_.plane(orientations_[particle]);
    plane.clear(from);
    plane.set(to);
  }

  [[nodiscard]] bool auxEnabled() const noexcept {
    return options_.enableRotations;
  }
  [[nodiscard]] double auxProbability() const noexcept {
    return options_.rotationProbability;
  }

  /// Orientation re-sampling: propose a uniform orientation for a uniform
  /// particle (symmetric), accept with min(1, κ^{Δali}).  (particle,
  /// draw6) are the engine's hoisted draws; draw6 is the proposed
  /// orientation.
  AuxOutcome auxStep(system::ParticleSystem& sys, rng::Random& rng,
                     std::size_t particle, int draw6) {
    const auto proposed = static_cast<std::uint8_t>(draw6);
    const std::uint8_t current = orientations_[particle];
    if (proposed == current) return AuxOutcome::Skipped;
    const TriPoint p = sys.position(particle);
    syncPlanes(sys);
    const int delta =
        std::popcount(static_cast<unsigned>(
            planes_.plane(proposed).neighborMaskUnchecked(p))) -
        std::popcount(static_cast<unsigned>(
            planes_.plane(current).neighborMaskUnchecked(p)));
    const double threshold =
        rotationPow_[static_cast<std::size_t>(delta + kMaxRotationDelta)];
    if (threshold >= 1.0 || rng.uniform() < threshold) {
      orientations_[particle] = proposed;
      planes_.plane(current).clear(p);
      planes_.plane(proposed).set(p);
      return AuxOutcome::Accepted;
    }
    return AuxOutcome::Rejected;
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const std::vector<std::uint8_t>& orientations() const noexcept {
    return orientations_;
  }

  /// ali(σ): exact recount of equal-orientation induced edges.
  [[nodiscard]] std::int64_t alignedEdges(
      const system::ParticleSystem& sys) const {
    return sameClassEdges(sys, orientations_);
  }

  /// Snapshot hooks: orientations are the model's only evolving state.
  void serialize(system::SnapshotWriter& w,
                 const system::ParticleSystem&) const {
    w.bytes(orientations_);
  }
  void deserialize(system::SnapshotReader& r) {
    std::vector<std::uint8_t> orientations = r.bytes();
    SOPS_REQUIRE(orientations.size() == orientations_.size(),
                 "snapshot: orientation count does not match the particle "
                 "count");
    for (const std::uint8_t o : orientations) {
      SOPS_REQUIRE(o < kOrientations, "snapshot: orientations are 0..5");
    }
    orientations_ = std::move(orientations);
    planes_.invalidate();
  }

 private:
  void syncPlanes(const system::ParticleSystem& sys) {
    planes_.sync(sys, [this](std::size_t i) { return orientations_[i]; });
  }

  Options options_;
  std::vector<std::uint8_t> orientations_;
  ShadowPlanes<static_cast<std::size_t>(kOrientations)> planes_;
  std::array<double, 2 * kMaxMoveDelta + 1> movePow_{};
  std::array<double, 2 * kMaxRotationDelta + 1> rotationPow_{};
};

// Every shipped model satisfies the full contract — asserted here, next
// to the definitions, so a drifted member is reported against the model
// rather than at the first engine instantiation in some distant TU.
static_assert(ChainWeightModel<CompressionModel>);
static_assert(ChainWeightModel<SeparationModel>);
static_assert(ChainWeightModel<AlignmentModel>);

/// Engine aliases for the shipped scenarios.
using CompressionEngine = BiasedChainEngine<CompressionModel>;
using SeparationEngine = BiasedChainEngine<SeparationModel>;
using AlignmentEngine = BiasedChainEngine<AlignmentModel>;

}  // namespace sops::core

#endif  // SOPS_CORE_SCENARIO_MODELS_HPP
