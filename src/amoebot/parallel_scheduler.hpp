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
/// **Stripes.**  The occupancy window is cut into vertical stripes of 64
/// lattice columns, exactly the bit planes' 64-bit word columns, so no two
/// stripes ever touch the same word.  An activation of a particle at tail
/// ℓ reads cells within lattice distance 2 of ℓ and writes within distance
/// 1 (|Δx| ≤ distance on G∆'s axial x), so a particle whose in-stripe
/// column lies in the interior band [2, 61] is processed entirely inside
/// its stripe.  Stripes therefore share no state at all — each owns its
/// particles' structs, private RNG streams, and plane words — and can run
/// on any number of threads with identical results.
///
/// **Halo deferral.**  Events of particles in the 2-column halo bands (or
/// close enough to the window edge that an expansion could force a plane
/// regrow, AmoebotSystem::shardSafe) are not executed in the parallel
/// phase: the owning stripe routes them, with their Poisson timestamps, to
/// a deferred list.  A particle that wanders into a band mid-epoch is
/// deferred from that event on (its position then cannot change until the
/// sweep, so the decision is stable).  After the stripes join, the main
/// thread executes all deferred events in (time, particle) order — a
/// legal sequential tail of the epoch's schedule, free to regrow windows.
///
/// **Clocks and coins.**  Each particle owns two decorrelated RNG streams
/// seeded once from the master seed (rng::particleStream): one drives its
/// exponential waiting times, one its activation coin flips.  The streams
/// live in SoA banks (rng/stream_bank.hpp) — packed 32-byte engine states,
/// one cache line per touched stream — and the clock bank draws a whole
/// epoch's waiting times in one batched sequential pass
/// (PoissonClockBank::fillEpoch).  Every random draw is therefore a pure
/// function of (seed, particle, how often that particle acted) — never of
/// thread interleaving — which, with the deterministic stripe/halo rules
/// above, makes the whole trajectory a pure function of the seed.
/// tests/local_golden_test.cpp pins this across thread counts.
///
/// Time advances in epochs of Δ = target / Σrates; epoch boundaries are
/// the only global synchronization.  An explicit targetEventsPerEpoch
/// fixes the target; the default adapts it each epoch from the
/// deferred-event fraction (core/epoch_control.hpp — a thread-count-
/// invariant signal, so adaptivity preserves determinism).
///
/// Configurations too spread out for one flat window run on BitGrid's
/// tiled backend: the same word-exclusive stripe discipline (tile columns
/// are 64-aligned), but stripes are keyed sparsely (util::FlatMap64)
/// because the allocated-tile bounding box can span astronomically many
/// columns; slots are assigned in a sequential first-touch pass that is
/// the same for every thread count.

#include <cstdint>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "core/cancel.hpp"
#include "core/epoch_control.hpp"
#include "rng/stream_bank.hpp"
#include "system/snapshot.hpp"
#include "util/event_sort.hpp"
#include "util/flat_hash.hpp"

namespace sops::amoebot {

struct ShardedOptions {
  /// Worker threads for the stripe phase; 0 uses hardware_concurrency().
  /// The trajectory is identical for every value.
  unsigned threads = 0;
  /// Expected activations per epoch (sets Δ = target / Σrates); 0 derives
  /// min(max(2n, 1024), 2^28) and lets the adaptive controller move it.
  /// An explicit value fixes the target for the whole run.
  std::uint64_t targetEventsPerEpoch = 0;
  /// Adapt the derived epoch target from the deferred-event fraction
  /// (core/epoch_control.hpp).  Ignored when targetEventsPerEpoch != 0.
  bool adaptiveEpochs = true;
  /// Per-particle Poisson rates; empty => all 1 (§3.2 allows heterogeneous
  /// rates without changing the stationary distribution).
  std::vector<double> rates;
};

class ShardedPoissonRunner {
 public:
  /// The runner holds references: `sys` and `algo` must outlive it.
  ShardedPoissonRunner(AmoebotSystem& sys,
                       const LocalCompressionAlgorithm& algo,
                       std::uint64_t seed, ShardedOptions options = {});

  /// Installs a cooperative cancel token polled between epochs: once it
  /// trips, runAtLeast/runFor return early (possibly with zero progress)
  /// with the system fully consistent — epoch boundaries are the only
  /// safe preemption points, and also exactly the states saveState() can
  /// serialize.  nullptr uninstalls.
  void setCancelToken(const core::CancelToken* cancel) noexcept {
    cancel_ = cancel;
  }

  /// Runs whole epochs until at least `minActivations` activations have
  /// executed in this call (or the cancel token trips); returns the
  /// number executed.  The id index is suspended for the duration and
  /// restored before returning, so the system is fully consistent (at(),
  /// expandedCount()) between calls.
  std::uint64_t runAtLeast(std::uint64_t minActivations);

  /// Runs whole epochs until simulated time advances by `duration` (or
  /// the cancel token trips).
  std::uint64_t runFor(double duration);

  /// Serializes the runner's evolving state: simulated clock, activation
  /// tallies, the current epoch target (history-dependent under the
  /// adaptive controller), and every particle's pending event time plus
  /// both private stream states (bare engine words — the banks' master
  /// seed comes from the constructor).  The system itself is serialized
  /// separately (AmoebotSystem::saveState); rates and epoch bounds come
  /// from the constructor.  Only legal between runs (epoch boundaries).
  void saveState(system::SnapshotWriter& w) const;

  /// Inverse of saveState on a runner constructed with the same
  /// (sys, algo, seed, options); continues the trajectory exactly, at any
  /// thread count.
  void restoreState(system::SnapshotReader& r);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t activations() const noexcept {
    return totalActivations_;
  }
  /// Activations executed on the sequential sweep (halo + window-edge
  /// deferrals) since construction — the serial fraction of the run.
  [[nodiscard]] std::uint64_t sweepActivations() const noexcept {
    return sweepActivations_;
  }
  [[nodiscard]] double epochLength() const noexcept { return epochLength_; }
  /// Current activations-per-epoch target (fixed, or the adaptive
  /// controller's latest decision).
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return epochTarget_;
  }

 private:
  struct Event {
    double time;
    std::uint32_t particle;

    friend bool operator<(const Event& a, const Event& b) noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.particle < b.particle;
    }
  };

  AmoebotSystem& sys_;
  const LocalCompressionAlgorithm& algo_;
  ShardedOptions options_;
  bool adaptive_ = true;
  double epochLength_;
  double now_ = 0.0;
  std::uint64_t epochTarget_ = 0;
  std::uint64_t totalActivations_ = 0;
  std::uint64_t sweepActivations_ = 0;
  core::AdaptiveEpochController controller_;

  rng::PoissonClockBank clock_;  ///< SoA waiting-time streams + rates
  rng::StreamBank coin_;         ///< SoA activation-coin streams
  rng::PoissonClockBank::EpochDraws draws_;
  const core::CancelToken* cancel_ = nullptr;

  /// Reused per-epoch buffers.  Indexed by buffer *slot*: equal to the
  /// stripe index over a flat window, assigned first-touch over a tiled
  /// one (stripeSlots_/stripeIndexOfSlot_ hold the mapping).
  std::vector<std::vector<std::uint32_t>> stripeParticles_;
  std::vector<std::vector<Event>> stripeEvents_;
  std::vector<std::vector<Event>> stripeDeferred_;
  std::vector<std::uint64_t> stripeActivations_;
  std::vector<util::EventSortScratch<Event>> sortScratch_;
  util::EventSortScratch<Event> sweepScratch_;
  std::vector<std::size_t> activeStripes_;  ///< slots, in merge order
  util::FlatMap64<std::uint32_t> stripeSlots_;  ///< tiled: stripe idx → slot
  std::vector<std::uint64_t> stripeIndexOfSlot_;
  std::vector<Event> sweepEvents_;

  /// One epoch [now_, now_ + Δ): batched draw, stripe phase, join,
  /// deferred sweep.  Returns activations executed.
  std::uint64_t runEpoch();
  /// Processes the stripe in buffer slot `slot`, covering the 64 columns
  /// at `stripeIndex` (events of its interior particles in time order,
  /// halo events routed to stripeDeferred_[slot]).  Runs on a worker
  /// thread.
  void runStripe(std::size_t slot, std::uint64_t stripeIndex,
                 std::int64_t originX, double epochEnd);
  /// (time, particle) sort shared by the stripe phase and the sweep:
  /// every firing time lies in the epoch window, so the bucket sort in
  /// util/event_sort.hpp applies; per-bucket comparison is Event's own
  /// operator<, so the result is the exact lexicographic schedule.
  static void sortEvents(std::vector<Event>& events,
                         util::EventSortScratch<Event>& scratch,
                         double begin, double end);
};

}  // namespace sops::amoebot

#endif  // SOPS_AMOEBOT_PARALLEL_SCHEDULER_HPP
