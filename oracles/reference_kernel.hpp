#ifndef SOPS_ORACLES_REFERENCE_KERNEL_HPP
#define SOPS_ORACLES_REFERENCE_KERNEL_HPP

/// \file reference_kernel.hpp
/// The *frozen seed implementation* of one iteration of Algorithm M:
/// occupancy through a hash set of its own (SeedOccupancy, independent of
/// ParticleSystem's bitboard), ring cells recomputed
/// from 60° rotations per query, properties re-derived from the ring mask
/// per proposal, the branch ladder in paper order, and a lazily drawn
/// Metropolis uniform.
///
/// This is the correctness and performance anchor for the optimized hot
/// path (bitboard + move/decision tables): the golden-trajectory tests
/// assert core::CompressionEngine is draw-for-draw identical to
/// ReferenceKernel, and bench_perf measures the speedup against it.  It
/// lives in the sops_oracles library, which only the tests and benches
/// link, so no production path can reach it — do not "optimize" it;
/// change it only if the chain's specified semantics change, in which case
/// the golden tests must be revisited too.

#include <cmath>
#include <cstdint>
#include <utility>

#include "core/chain_stats.hpp"
#include "core/compression_chain.hpp"  // ChainOptions
#include "core/properties.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"
#include "util/flat_hash.hpp"

namespace sops::core {

/// The seed's occupancy: a hash set of packed cells, built from a
/// system's positions and kept by its owner in step with its own accepted
/// moves.  Implicit, so a one-shot evaluateMoveSeed(sys, ...) snapshots
/// sys's positions.
class SeedOccupancy {
 public:
  SeedOccupancy(const system::ParticleSystem& sys)
      : cells_(sys.size()) {
    for (const TriPoint p : sys.positions()) cells_.insert(lattice::pack(p), 1);
  }

  [[nodiscard]] bool operator()(TriPoint p) const noexcept {
    return cells_.contains(lattice::pack(p));
  }

  void move(TriPoint from, TriPoint to) {
    cells_.erase(lattice::pack(from));
    cells_.insert(lattice::pack(to), 1);
  }

 private:
  util::FlatMap64<std::uint8_t> cells_;
};

/// Seed ring-mask gather: each ring cell from ringCell()'s rotation math,
/// occupancy from the given oracle (typically a SeedOccupancy).
template <typename OccupiedFn>
[[nodiscard]] std::uint8_t ringMaskSeed(TriPoint l, Direction d,
                                        OccupiedFn&& occupied) {
  std::uint8_t mask = 0;
  for (int idx = 0; idx < kRingSize; ++idx) {
    if (occupied(ringCell(l, d, idx))) {
      mask = static_cast<std::uint8_t>(mask | (1u << idx));
    }
  }
  return mask;
}

/// Seed evaluateMove: hash-probe occupancy, per-proposal property
/// recomputation (no move table).
[[nodiscard]] inline MoveEvaluation evaluateMoveSeed(
    const SeedOccupancy& occupied, TriPoint l, Direction d) {
  MoveEvaluation eval;
  if (occupied(lattice::neighbor(l, d))) {
    eval.targetOccupied = true;
    return eval;
  }
  eval.mask = ringMaskSeed(l, d, occupied);
  eval.eBefore = neighborsBefore(eval.mask);
  eval.eAfter = neighborsAfter(eval.mask);
  eval.gapOk = eval.eBefore != 5;
  eval.property1 = property1Holds(eval.mask);
  eval.property2 = property2Holds(eval.mask);
  eval.propertyOk = eval.property1 || eval.property2;
  return eval;
}

/// Seed chain: the full branch ladder with ablation switches, identical
/// RNG draw order to CompressionEngine::step().
class ReferenceKernel {
 public:
  ReferenceKernel(system::ParticleSystem initial, ChainOptions options,
                  std::uint64_t seed)
      : system_(std::move(initial)),
        occupied_(system_),
        options_(options),
        rng_(seed) {
    edges_ = system::countEdges(system_);
    for (int delta = -5; delta <= 5; ++delta) {
      lambdaPow_[delta + 5] = std::pow(options_.lambda, delta);
    }
  }

  StepOutcome step() {
    const auto particle = static_cast<std::size_t>(
        rng_.below(static_cast<std::uint32_t>(system_.size())));
    const Direction d =
        lattice::directionFromIndex(static_cast<int>(rng_.below(6)));
    const TriPoint l = system_.position(particle);

    const MoveEvaluation eval = evaluateMoveSeed(occupied_, l, d);
    StepOutcome outcome;
    if (eval.targetOccupied) {
      outcome = StepOutcome::TargetOccupied;
    } else if (options_.enforceGapCondition && !eval.gapOk) {
      outcome = StepOutcome::RejectedGap;
    } else if (options_.enforceProperties &&
               !(eval.property1 ||
                 (options_.allowProperty2 && eval.property2))) {
      outcome = StepOutcome::RejectedProperty;
    } else {
      bool accept;
      if (options_.greedy) {
        accept = eval.eAfter >= eval.eBefore;
      } else {
        const double threshold = lambdaPow_[eval.eAfter - eval.eBefore + 5];
        accept = threshold >= 1.0 || rng_.uniform() < threshold;
      }
      if (accept) {
        system_.moveParticle(particle, lattice::neighbor(l, d));
        occupied_.move(l, lattice::neighbor(l, d));
        edges_ += eval.eAfter - eval.eBefore;
        outcome = StepOutcome::Accepted;
      } else {
        outcome = StepOutcome::RejectedFilter;
      }
    }
    stats_.record(outcome);
    return outcome;
  }

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return system_;
  }
  [[nodiscard]] const ChainStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::int64_t edges() const noexcept { return edges_; }

 private:
  system::ParticleSystem system_;
  SeedOccupancy occupied_;
  ChainOptions options_;
  rng::Random rng_;
  ChainStats stats_;
  std::int64_t edges_ = 0;
  double lambdaPow_[11];
};

}  // namespace sops::core

#endif  // SOPS_ORACLES_REFERENCE_KERNEL_HPP
