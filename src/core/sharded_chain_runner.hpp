#ifndef SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP
#define SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP

/// \file sharded_chain_runner.hpp
/// Multi-core single-replica execution of the biased chain: the weight
/// models of core::BiasedChainEngine run as the kernel of the stripe epoch
/// executor (core/stripe_epoch_executor.hpp), which owns the superposed
/// clocks, the stripes, halo deferral and adaptive epochs.
///
/// The chain M activates one particle per step, which pins a replica to
/// one core no matter how large n grows.  Poissonization breaks the
/// serialization: give every particle an independent exponential clock
/// and execute clock events instead of uniform draws — each event is
/// exactly one Metropolis proposal of the engine's weight model, and the
/// per-event body is the *same* chainEventStep() the sequential engine
/// runs, drawing (aux coin, direction/orientation, Metropolis uniform)
/// from the stream of the stripe (or sweep) that runs the event.
///
/// **Kernel.**  One event of a particle at column c reads within
/// Model::kInteractionRadius columns of c and writes within radius − 1, so
/// the halo is the model's declared radius (ModelInteractionRadius): 2 for
/// pure movement (ring reads), 3 for pair moves (separation's swap partner
/// and alignment's rotation interact across a shared edge whose ring
/// extends one column further).  An event also stays in its stripe only
/// if an accepted move cannot force a plane regrow
/// (BitGrid::coversInteriorBy(pos, kInteriorMargin + 1)) and, for pair-move
/// models, if the paged partner-id plane covers its neighborhood
/// (ParticleIdPlane::coversNear) — directory growth, like window growth,
/// belongs to the sequential pre-phase and sweep only.  The pre-phase
/// re-attaches the model's shadow planes and syncs the id plane; a stripe
/// worker's accepted move then writes only its particle's position slot
/// and plane words inside its stripe.  Per-stripe tallies (EngineStats and the e(σ) delta) are integer sums,
/// so merging them in stripe order is exact.
///
/// **Heterogeneous rates.**  ShardedChainOptions::rates gives particle i
/// activation rate rate_i > 0 (empty = all 1.0, the paper's uniform
/// chain).  Each accepted move's reverse is proposed by the *same*
/// particle's clock (movement: the moved particle; swap and rotation:
/// the event's coins pair i with i), so the Metropolis ratio — and with
/// it the stationary distribution π — is unchanged by the rates; only
/// the selection frequencies shift.  tests/sharded_chain_test.cpp checks
/// this against exact π by chi-square at n = 4 and 5.
///
/// **What is and is not preserved.**  Unlike the facade's sequential
/// path, the sharded trajectory is *not* draw-for-draw the engine's (the
/// particle-selection mechanism differs, and halo events are reordered
/// after interior events they commute with only approximately).  The
/// contract is distributional: every executed event is a legal
/// Metropolis proposal of the same weight model on the configuration it
/// observes, connectivity and the tracked e(σ) stay exact, and the
/// stationary behavior is validated against exact π by chi-square at
/// enumerable sizes and against the sequential engine by KS at n = 10⁴
/// (pre-registered thresholds, tests/sharded_chain_test.cpp).  The
/// trajectory is a pure function of the seed at every thread count, which
/// the same file pins for all three shipped models.

#include <array>
#include <cstdint>
#include <utility>

#include "core/biased_chain_engine.hpp"
#include "core/cancel.hpp"
#include "core/stripe_epoch_executor.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/snapshot.hpp"

namespace sops::core {

using ShardedChainOptions = StripeEpochOptions;

template <typename Model>
  requires ChainWeightModel<Model>
class ShardedChainRunner {
 public:
  ShardedChainRunner(system::ParticleSystem initial, Model model,
                     std::uint64_t seed, ShardedChainOptions options = {})
      : system_(std::move(initial)), model_(std::move(model)),
        executor_(seed, system_.size(), options) {
    const ChainOptions chainOptions = model_.chainOptions();
    SOPS_REQUIRE(chainOptions.lambda > 0.0, "lambda must be positive");
    SOPS_REQUIRE(Model::kUniformWeight || !chainOptions.greedy,
                 "greedy mode is only defined for the uniform-weight model");
    greedy_ = chainOptions.greedy;
    SOPS_REQUIRE(system::isConnected(system_),
                 "sharded runner requires a connected starting configuration");
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
    edges_ = system::countEdges(system_);
    decisions_ = buildDecisionTable(chainOptions);
  }

  /// Installs a cooperative cancel token polled between epochs (see
  /// StripeEpochExecutor::setCancelToken).  nullptr uninstalls.
  void setCancelToken(const CancelToken* cancel) noexcept {
    executor_.setCancelToken(cancel);
  }

  /// Runs whole epochs until at least `minEvents` chain events have
  /// executed in this call (or the cancel token trips); returns the
  /// number executed.
  std::uint64_t runAtLeast(std::uint64_t minEvents) {
    return executor_.runAtLeast(*this, minEvents);
  }

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return system_;
  }
  [[nodiscard]] const Model& model() const noexcept { return model_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double now() const noexcept { return executor_.now(); }
  [[nodiscard]] double epochLength() const noexcept {
    return executor_.epochLength();
  }

  /// Current events-per-epoch target (fixed, or the adaptive controller's
  /// latest decision).
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return executor_.epochTarget();
  }

  /// Events executed on the sequential sweep (halo + window-edge
  /// deferrals) since construction — the serial fraction of the run.
  [[nodiscard]] std::uint64_t sweepEvents() const noexcept {
    return executor_.sweepEvents();
  }

  /// Current e(σ), maintained incrementally from the decision table's δ
  /// (merged across stripes; integer sums are order-independent).
  [[nodiscard]] std::int64_t edges() const noexcept { return edges_; }

  /// p = 3n − e − 3, exact whenever the configuration is hole-free
  /// (Lemma 2.3; hole-freeness is absorbing under the movement rules).
  [[nodiscard]] std::int64_t perimeterIfHoleFree() const noexcept {
    return 3 * static_cast<std::int64_t>(system_.size()) - edges_ - 3;
  }

  /// Serializes the runner's evolving state: system WITH its exact window
  /// geometry (the stripe decomposition and halo/edge deferral rules are
  /// functions of it — a re-derived window would change the trajectory),
  /// model aux state, tallies, the simulated clock, then the executor's
  /// schedule state (StripeEpochExecutor::saveState), then the partner-id
  /// plane's mode and (when paged) its exact page directory, since the
  /// striped deferral predicate is a function of the allocated-page set.
  /// Only legal between runAtLeast calls (epoch boundaries).
  void saveState(system::SnapshotWriter& w) const {
    system::writeParticleSystem(w, system_);
    model_.serialize(w);
    writeEngineStats(w, stats_);
    w.i64(edges_);
    w.f64(executor_.now());
    executor_.saveState(w);
    if constexpr (kMaintainsIds) partnerIds_.saveState(w);
  }

  /// Inverse of saveState on a runner constructed from the same spec
  /// (same model options, seed, epoch/rate options).  Epoch bounds,
  /// decision table, rates, and the derived planes come from the
  /// constructor; everything history-dependent is restored, so the runner
  /// continues the snapshotted trajectory exactly (at any thread count).
  /// Frames before v4 are rejected (requireStripeEpochFrame).
  void restoreState(system::SnapshotReader& r) {
    requireStripeEpochFrame(r);
    system_ = system::readParticleSystem(r);
    model_.deserialize(r);
    stats_ = readEngineStats(r);
    edges_ = r.i64();
    const double now = r.f64();
    executor_.restoreState(r, now, system_.size());
    model_.attach(system_);
    // The plane's mode and exact page directory, restored key for key.
    if constexpr (kMaintainsIds) partnerIds_.restoreState(r, system_);
    SOPS_REQUIRE(system::countEdges(system_) == edges_,
                 "snapshot: restored edge count disagrees with the "
                 "configuration — corrupt or mismatched snapshot");
  }

 private:
  friend class StripeEpochExecutor<ShardedChainRunner>;

  static constexpr bool kMaintainsIds = ModelNeedsPartnerIds<Model>::value;
  static constexpr std::uint64_t kHaloColumns =
      static_cast<std::uint64_t>(ModelInteractionRadius<Model>::value);
  static_assert(ModelInteractionRadius<Model>::value >= 1 &&
                    ModelInteractionRadius<Model>::value <= 8,
                "interaction radius must leave a non-trivial stripe interior");

  /// Per-stripe outcome tally, merged in stripe order after the join.
  struct Tally {
    EngineStats stats;
    std::int64_t edgeDelta = 0;
  };

  // --- kernel of StripeEpochExecutor ---

  [[nodiscard]] const system::BitGrid& grid() const noexcept {
    return system_.grid();
  }
  [[nodiscard]] TriPoint anchor(std::uint32_t i) const noexcept {
    return system_.position(i);
  }
  /// Window-edge and (pair-move models) id-plane coverage; lookups and id
  /// moves reach distance ≤ 1.  Both directories are immutable during the
  /// stripe phase, so the predicate is the same for every thread count.
  [[nodiscard]] bool stripeSafe(TriPoint pos) const noexcept {
    if constexpr (kMaintainsIds) {
      if (!partnerIds_.coversNear(pos, 1)) return false;
    }
    return system_.grid().coversInteriorBy(
        pos, system::BitGrid::kInteriorMargin + 1);
  }
  /// With the window geometry fixed for the stripe phase (window-edge
  /// events are deferred), no plane rebuild can trigger inside a worker.
  void prepareEpoch() {
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
  }
  void runEvent(std::uint32_t particle, rng::Random& rng, Tally& tally) {
    ++tally.stats.steps;
    bool auxMove = false;
    if constexpr (Model::kHasAuxMove) {
      auxMove = model_.auxEnabled() && rng.bernoulli(model_.auxProbability());
    }
    const int draw6 = static_cast<int>(rng.below(6));
    const EngineStepResult result = chainEventStep(
        system_, model_, partnerIds_, decisions_, greedy_,
        static_cast<std::size_t>(particle), draw6, auxMove, rng,
        tally.edgeDelta);
    if (result.wasAux) {
      if (result.aux != AuxOutcome::Skipped) ++tally.stats.auxProposed;
      if (result.aux == AuxOutcome::Accepted) ++tally.stats.auxAccepted;
    } else {
      tally.stats.movement.record(result.movement);
    }
  }
  void mergeTally(const Tally& tally) noexcept {
    stats_.merge(tally.stats);
    edges_ += tally.edgeDelta;
  }

  system::ParticleSystem system_;
  Model model_;
  EngineStats stats_;
  std::int64_t edges_ = 0;
  bool greedy_ = false;
  /// cell → id mirror for models that declare kNeedsPartnerIds; empty and
  /// untouched otherwise (same contract as the engine's).
  ParticleIdPlane partnerIds_;
  std::array<MoveDecision, 256> decisions_{};
  StripeEpochExecutor<ShardedChainRunner> executor_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP
