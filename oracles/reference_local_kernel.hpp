#ifndef SOPS_ORACLES_REFERENCE_LOCAL_KERNEL_HPP
#define SOPS_ORACLES_REFERENCE_LOCAL_KERNEL_HPP

/// \file reference_local_kernel.hpp
/// The *frozen seed implementation* of the amoebot substrate and one
/// activation of Algorithm A: occupancy through a sparse hash index only
/// (one probe chain per cell query), the N* oracle and the
/// expanded-neighbor scans as per-cell loops, properties re-derived from
/// the ring mask per activation, and the paper-order condition chain with
/// its exact RNG draw sequence.
///
/// This is the correctness and performance anchor for the optimized
/// amoebot layer (head/tail bit planes + per-λ decision table): the local
/// golden-trajectory tests assert AmoebotSystem +
/// LocalCompressionAlgorithm are draw-for-draw identical to this kernel
/// under every scheduler, and bench_local_algorithm / bench_perf measure
/// the speedup against it.  It mirrors oracles/reference_kernel.hpp for
/// the global chain M and, like it, lives in the sops_oracles library that
/// only tests and benches link — do not "optimize" it; change it only if
/// Algorithm A's specified semantics change, in which case the golden
/// tests must be revisited too.

#include <cmath>
#include <cstdint>
#include <vector>

#include "amoebot/local_compression.hpp"
#include "core/properties.hpp"
#include "lattice/direction.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "system/particle_system.hpp"
#include "util/flat_hash.hpp"

namespace sops::amoebot::reference {

using lattice::Direction;
using lattice::TriPoint;

/// Seed amoebot substrate: every cell query is a hash probe into one
/// cell -> (id << 1) | isHead map; no bit planes, no precomputed gathers.
class ReferenceAmoebotSystem {
 public:
  struct CellView {
    std::int32_t particle = kEmpty;
    bool isHead = false;
    static constexpr std::int32_t kEmpty = -1;
    [[nodiscard]] bool empty() const noexcept { return particle == kEmpty; }
  };

  /// Identical construction draw order to AmoebotSystem: one below(6) and
  /// one bernoulli per particle, in particle order.
  ReferenceAmoebotSystem(const system::ParticleSystem& initial,
                         rng::Random& rng)
      : occupancy_(initial.size() * 2) {
    SOPS_REQUIRE(initial.size() > 0,
                 "ReferenceAmoebotSystem requires particles");
    particles_.reserve(initial.size());
    for (std::size_t id = 0; id < initial.size(); ++id) {
      Particle p;
      p.tail = initial.position(id);
      p.head = p.tail;
      p.orientationOffset = static_cast<std::uint8_t>(rng.below(6));
      p.mirrored = rng.bernoulli(0.5);
      particles_.push_back(p);
      setCell(p.tail, static_cast<std::int32_t>(id), false);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return particles_.size(); }
  [[nodiscard]] const Particle& particle(std::size_t id) const {
    SOPS_DASSERT(id < particles_.size());
    return particles_[id];
  }

  [[nodiscard]] CellView at(TriPoint cell) const noexcept {
    const std::int32_t* raw = occupancy_.find(lattice::pack(cell));
    if (raw == nullptr) return {};
    return {*raw >> 1, (*raw & 1) != 0};
  }
  [[nodiscard]] bool occupied(TriPoint cell) const noexcept {
    return !at(cell).empty();
  }

  [[nodiscard]] Direction globalDirection(std::size_t id, int port) const {
    const Particle& p = particles_[id];
    const int step = p.mirrored ? -port : port;
    return lattice::rotated(static_cast<Direction>(p.orientationOffset), step);
  }

  [[nodiscard]] bool expandedParticleAdjacent(TriPoint cell,
                                              std::size_t self) const {
    for (const Direction d : lattice::kAllDirections) {
      const CellView view = at(lattice::neighbor(cell, d));
      if (view.empty()) continue;
      if (static_cast<std::size_t>(view.particle) == self) continue;
      if (particles_[static_cast<std::size_t>(view.particle)].expanded) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool occupiedExcludingHeads(TriPoint cell,
                                            std::size_t self) const {
    const CellView view = at(cell);
    if (view.empty()) return false;
    if (static_cast<std::size_t>(view.particle) == self) return false;
    const Particle& p = particles_[static_cast<std::size_t>(view.particle)];
    if (p.expanded && view.isHead) return false;
    return true;
  }

  void expand(std::size_t id, Direction d) {
    Particle& p = particles_[id];
    SOPS_REQUIRE(!p.expanded, "reference expand: particle already expanded");
    const TriPoint target = lattice::neighbor(p.tail, d);
    SOPS_REQUIRE(!occupied(target), "reference expand: target occupied");
    p.head = target;
    p.expanded = true;
    setCell(target, static_cast<std::int32_t>(id), true);
    ++expandedCount_;
  }

  void contractToHead(std::size_t id) {
    Particle& p = particles_[id];
    SOPS_REQUIRE(p.expanded, "reference contractToHead: not expanded");
    clearCell(p.tail);
    p.tail = p.head;
    p.expanded = false;
    setCell(p.tail, static_cast<std::int32_t>(id), false);
    --expandedCount_;
  }

  void contractBack(std::size_t id) {
    Particle& p = particles_[id];
    SOPS_REQUIRE(p.expanded, "reference contractBack: not expanded");
    clearCell(p.head);
    p.head = p.tail;
    p.expanded = false;
    setCell(p.tail, static_cast<std::int32_t>(id), false);
    --expandedCount_;
  }

  void setFlag(std::size_t id, bool value) { particles_[id].flag = value; }
  void markCrashed(std::size_t id) { particles_[id].crashed = true; }
  void markByzantine(std::size_t id) { particles_[id].byzantine = true; }

  [[nodiscard]] std::size_t expandedCount() const noexcept {
    return expandedCount_;
  }

  [[nodiscard]] system::ParticleSystem tailConfiguration() const {
    std::vector<TriPoint> tails;
    tails.reserve(particles_.size());
    for (const Particle& p : particles_) tails.push_back(p.tail);
    return system::ParticleSystem(tails);
  }

 private:
  std::vector<Particle> particles_;
  util::FlatMap64<std::int32_t> occupancy_;
  std::size_t expandedCount_ = 0;

  void setCell(TriPoint cell, std::int32_t id, bool isHead) {
    occupancy_.insertOrAssign(lattice::pack(cell),
                              (id << 1) | (isHead ? 1 : 0));
  }
  void clearCell(TriPoint cell) {
    const bool removed = occupancy_.erase(lattice::pack(cell));
    SOPS_REQUIRE(removed, "reference clearCell: cell was not occupied");
  }
};

/// Seed Algorithm A kernel: per-activation λ^δ from a small table, the
/// paper's short-circuit condition chain, every neighborhood scan through
/// the hash substrate above.  Draw order per activation — contracted:
/// below(6), then (on a successful expansion) nothing further; expanded:
/// one uniform() iff e ≠ 5 and Property 1 or 2 holds; byzantine
/// contracted: one below(6).
class ReferenceLocalKernel {
 public:
  explicit ReferenceLocalKernel(LocalOptions options) : options_(options) {
    SOPS_REQUIRE(options_.lambda > 0.0, "lambda must be positive");
    for (int delta = -5; delta <= 5; ++delta) {
      lambdaPow_[delta + 5] = std::pow(options_.lambda, delta);
    }
  }

  ActivationResult activate(ReferenceAmoebotSystem& sys, std::size_t id,
                            rng::Random& rng) const {
    const Particle& p = sys.particle(id);
    if (p.crashed) return ActivationResult::Idle;
    if (p.byzantine) return activateByzantine(sys, id, rng);
    return p.expanded ? activateExpanded(sys, id, rng)
                      : activateContracted(sys, id, rng);
  }

 private:
  LocalOptions options_;
  double lambdaPow_[11];

  ActivationResult activateContracted(ReferenceAmoebotSystem& sys,
                                      std::size_t id, rng::Random& rng) const {
    const Particle& p = sys.particle(id);
    const Direction d =
        sys.globalDirection(id, static_cast<int>(rng.below(6)));
    const TriPoint l = p.tail;
    const TriPoint target = lattice::neighbor(l, d);

    if (sys.occupied(target)) return ActivationResult::Idle;
    if (sys.expandedParticleAdjacent(l, id)) return ActivationResult::Idle;

    sys.expand(id, d);

    const bool nearbyExpanded = sys.expandedParticleAdjacent(l, id) ||
                                sys.expandedParticleAdjacent(target, id);
    sys.setFlag(id, !nearbyExpanded);
    return ActivationResult::Expanded;
  }

  ActivationResult activateExpanded(ReferenceAmoebotSystem& sys,
                                    std::size_t id, rng::Random& rng) const {
    const Particle& p = sys.particle(id);
    const TriPoint l = p.tail;
    const auto dOpt = lattice::directionBetween(l, p.head);
    SOPS_REQUIRE(dOpt.has_value(), "expanded particle with non-adjacent head");
    const Direction d = *dOpt;

    const auto oracle = [&sys, id](TriPoint cell) {
      return sys.occupiedExcludingHeads(cell, id);
    };
    const std::uint8_t mask = core::ringMask(l, d, oracle);
    const int e = core::neighborsBefore(mask);
    const int ePrime = core::neighborsAfter(mask);

    const bool conditions =
        e != 5 && (core::property1Holds(mask) || core::property2Holds(mask)) &&
        rng.uniform() < lambdaPow_[ePrime - e + 5] && p.flag;
    if (conditions) {
      sys.contractToHead(id);
      return ActivationResult::MovedToHead;
    }
    sys.contractBack(id);
    return ActivationResult::ContractedBack;
  }

  ActivationResult activateByzantine(ReferenceAmoebotSystem& sys,
                                     std::size_t id, rng::Random& rng) const {
    const Particle& p = sys.particle(id);
    if (p.expanded) return ActivationResult::Idle;
    const int firstPort = static_cast<int>(rng.below(6));
    for (int probe = 0; probe < 6; ++probe) {
      const Direction d = sys.globalDirection(id, (firstPort + probe) % 6);
      if (!sys.occupied(lattice::neighbor(p.tail, d))) {
        sys.expand(id, d);
        sys.setFlag(id, false);
        return ActivationResult::Expanded;
      }
    }
    return ActivationResult::Idle;
  }
};

}  // namespace sops::amoebot::reference

#endif  // SOPS_ORACLES_REFERENCE_LOCAL_KERNEL_HPP
