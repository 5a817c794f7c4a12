#ifndef SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP
#define SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP

/// \file parallel_scheduler.hpp
/// Sharded concurrent execution of Algorithm A: million-particle Poisson
/// runs on all cores, deterministic per seed.
///
/// The amoebot model is asynchronous — any schedule of atomic activations
/// is legal, and §3.2 realizes uniform selection by independent Poisson
/// clocks.  Two activations whose read/write neighborhoods are disjoint
/// commute, so they may run concurrently without changing what any single
/// schedule could have produced.  This runner exploits that:
///
/// **Kernel.**  The runner is the kernel of the stripe epoch executor
/// (core/stripe_epoch_executor.hpp), which owns the superposed Poisson
/// clocks, the 64-column stripes, halo deferral and adaptive epochs.  An
/// activation of a particle at tail ℓ reads cells within lattice distance
/// 2 of ℓ and writes within distance 1 (|Δx| ≤ distance on G∆'s axial x),
/// so the halo is 2 columns and the anchor is the tail.  A particle close
/// enough to the window edge that an expansion could force a plane regrow
/// (AmoebotSystem::shardSafe) is deferred to the sweep too.  Each event
/// draws its activation coins from the coin stream of the stripe that runs
/// it (or the sweep's stream).  An activation writes only plane words
/// within distance 1 of its tail and its own particle's state, so the
/// kernel needs no pre-phase.  tests/local_golden_test.cpp pins the
/// trajectory across thread counts.

#include <cstdint>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "core/cancel.hpp"
#include "core/stripe_epoch_executor.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "system/snapshot.hpp"

namespace sops::amoebot {

using ShardedOptions = core::StripeEpochOptions;

class ShardedPoissonRunner {
 public:
  /// The runner holds references: `sys` and `algo` must outlive it.
  ShardedPoissonRunner(AmoebotSystem& sys,
                       const LocalCompressionAlgorithm& algo,
                       std::uint64_t seed, ShardedOptions options = {});

  /// Installs a cooperative cancel token polled between epochs (see
  /// core::StripeEpochExecutor::setCancelToken).  nullptr uninstalls.
  void setCancelToken(const core::CancelToken* cancel) noexcept {
    executor_.setCancelToken(cancel);
  }

  /// Runs whole epochs until at least `minActivations` activations have
  /// executed in this call (or the cancel token trips); returns the
  /// number executed.
  std::uint64_t runAtLeast(std::uint64_t minActivations);

  /// Serializes the runner's evolving state: simulated clock, activation
  /// tally, then the executor's schedule state (sweep tally, epoch target,
  /// epoch index — 40 bytes in all, whatever the particle count).  The
  /// system itself is serialized separately (AmoebotSystem::saveState);
  /// rates and epoch bounds come from the constructor.  Only legal between
  /// runs (epoch boundaries).
  void saveState(system::SnapshotWriter& w) const;

  /// Inverse of saveState on a runner constructed with the same
  /// (sys, algo, seed, options); continues the trajectory exactly, at any
  /// thread count.  Frames before v4 are rejected
  /// (core::requireStripeEpochFrame).
  void restoreState(system::SnapshotReader& r);

  [[nodiscard]] double now() const noexcept { return executor_.now(); }
  [[nodiscard]] std::uint64_t activations() const noexcept {
    return totalActivations_;
  }
  /// Activations executed on the sequential sweep (halo + window-edge
  /// deferrals) since construction — the serial fraction of the run.
  [[nodiscard]] std::uint64_t sweepActivations() const noexcept {
    return executor_.sweepEvents();
  }
  [[nodiscard]] double epochLength() const noexcept {
    return executor_.epochLength();
  }
  /// Current activations-per-epoch target (fixed, or the adaptive
  /// controller's latest decision).
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return executor_.epochTarget();
  }

 private:
  friend class core::StripeEpochExecutor<ShardedPoissonRunner>;

  static constexpr std::uint64_t kHaloColumns = 2;
  using Tally = std::uint64_t;  ///< activations executed

  // --- kernel of core::StripeEpochExecutor ---

  [[nodiscard]] const system::BitGrid& grid() const noexcept {
    return sys_.occupancyGrid();
  }
  [[nodiscard]] TriPoint anchor(std::uint32_t i) const noexcept {
    return sys_.particle(i).tail;
  }
  void prefetch(std::uint32_t i) const noexcept {
    __builtin_prefetch(&sys_.particle(i));
  }
  [[nodiscard]] bool stripeSafe(TriPoint tail) const noexcept {
    return sys_.shardSafe(tail);
  }
  void prepareEpoch() noexcept {}
  void runEvent(std::uint32_t i, rng::Random& coin, Tally& executed) {
    algo_.activate(sys_, i, coin);
    ++executed;
  }
  void mergeTally(Tally executed) noexcept { totalActivations_ += executed; }

  AmoebotSystem& sys_;
  const LocalCompressionAlgorithm& algo_;
  std::uint64_t totalActivations_ = 0;
  core::StripeEpochExecutor<ShardedPoissonRunner> executor_;
};

}  // namespace sops::amoebot

#endif  // SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP
