#ifndef SOPS_CORE_STRIPE_EPOCH_EXECUTOR_HPP
#define SOPS_CORE_STRIPE_EPOCH_EXECUTOR_HPP

/// \file stripe_epoch_executor.hpp
/// The Poissonized epoch schedule both sharded runners execute: the chain
/// runner (core/sharded_chain_runner.hpp) and Algorithm A's amoebot runner
/// (amoebot/parallel_scheduler.hpp).  Algorithm A is the chain M under
/// independent Poisson clocks (§3.2), so the two share every part of the
/// schedule and differ only in what one event does.  This header owns the
/// shared part; a runner supplies the rest as the `Kernel` parameter.
///
/// **Clocks by superposition.**  Algorithm A gives every particle an
/// independent Poisson clock of rate rate_i (1 by default).  The executor
/// fixes each particle's stripe at the start of an epoch (bucket()), and
/// the union of the clocks of a fixed set P is one Poisson clock of rate
/// Σ_{i∈P} rate_i whose rings land on i with probability rate_i / Σ — so
/// each stripe s draws its own events directly, in time order: exponential
/// gaps at rate |P_s|·r_max(s), a uniform member of P_s per ring, thinned
/// with probability rate_i / r_max(s) (no thinning draw when all rates are
/// equal, so explicit all-ones rates run the same trajectory as the
/// default).  Memorylessness makes restarting every stripe at each epoch
/// boundary exact.
///
/// **Two streams per stripe, batched rings.**  A stripe's gaps, member
/// picks and thinning coins come from its clock stream,
/// rng::epochStream(seed, epoch index, stripe key); its interior events'
/// own draws come from its coin stream, keyed by the stripe key with the
/// top bit set; the deferred sweep draws its events' coins from one more
/// stream per epoch.  A gap is one ziggurat draw
/// (rng::drawStandardExponential, no libm call on 97.8 % of draws) times
/// the precomputed 1 / (|P_s|·r_max).  Because clock and coin draws never
/// share a stream, the stripe draws kBatchRings rings ahead, hinting each
/// picked particle's anchor into cache (the kernel's `prefetch`), and then
/// runs that batch in order: the anchor loads overlap instead of waiting
/// behind the previous event, and the trajectory does not depend on the
/// batch size.  Whether an event runs in the stripe or is deferred is
/// still decided on the particle's anchor when the event runs, not when
/// the batch is drawn.  Every draw is a pure function of (seed, epoch,
/// stream key, draw index) — never of thread interleaving — which, with
/// the deterministic stripe and halo rules below, makes the trajectory a
/// pure function of the seed at every thread count.  The executor keeps
/// no per-particle clock or RNG state.
///
/// **Stripes.**  The occupancy window is cut into vertical stripes of 64
/// lattice columns — exactly the bit planes' 64-bit word columns, so no two
/// stripes touch the same word of any plane allocated with the window's
/// geometry.  An event of a particle whose anchor column sits in the
/// in-stripe interior band [halo, 64 − halo) reads and writes only inside
/// its stripe, where `halo` is the kernel's interaction reach in columns.
/// Interior events of different stripes therefore commute, and each stripe
/// runs its own events sequentially, in the time order it draws them, on a
/// worker of core::parallelForIndex.  Workers claim the stripes largest
/// first, so the heaviest stripe never starts last; tallies still merge in
/// ascending stripe order.
///
/// **Halo deferral.**  Events of particles in a halo band, or failing the
/// kernel's own safety predicate (too close to the window edge for a
/// regrow, outside a paged directory), are not executed in the stripe
/// phase: the owning stripe routes them, with their Poisson timestamps, to
/// a deferred list.  A particle that wanders into a band mid-epoch is
/// deferred from that event on (only its own events move it, so the
/// decision is stable).  After the stripes join, the coordinating thread
/// executes every deferred event in (time, particle) order — a sequential
/// tail of the epoch's schedule, free to regrow windows and planes.  The
/// sweep schedule is every stripe's deferred list concatenated and sorted
/// once with the epoch bucket sort; a per-stripe merge cascade would go
/// quadratic on wide tiled windows with thousands of active stripes.
///
/// **Epoch sizing.**  Epoch length Δ = target / Σ rates.  An explicit
/// targetEventsPerEpoch fixes the target; the default adapts it each
/// epoch from the deferred-event fraction (core/epoch_control.hpp — a
/// thread-count-invariant signal).  No draw crosses an epoch boundary (a
/// batch ends at the first ring past the epoch's end), so every epoch
/// boundary is a complete state: the sweep count, the target and the
/// epoch index (plus the runner's clock).
///
/// **Tiled windows.**  Tile columns are 64-aligned, so the same stripes
/// apply, but the allocated-tile bounding box can span astronomically many
/// columns: stripes are keyed sparsely (util::FlatMap64), with buffer slots
/// assigned in a sequential first-touch pass and merged in ascending stripe
/// order — the same for every thread count.
///
/// **The kernel.**  The runner itself, befriending its executor.  It
/// supplies, all called without virtual dispatch so the per-event body
/// inlines:
///   - `static constexpr std::uint64_t kHaloColumns` — halo band width;
///   - `Tally` — a default-constructible per-stripe outcome tally;
///   - `grid()` — the occupancy BitGrid whose words the stripes partition;
///   - `anchor(i)` — the cell whose column places particle i in a stripe;
///   - `prefetch(i)` — a cache hint for what anchor(i) will read, issued
///     when a ring of particle i is drawn into a batch;
///   - `stripeSafe(anchor)` — the extra condition for running in a stripe;
///   - `prepareEpoch()` — the sequential pre-phase before each epoch;
///   - `runEvent(i, coin, tally)` — one event of particle i, drawing from
///     `coin` (the stripe's coin stream or the sweep's stream);
///   - `mergeTally(tally)` — folds a tally in, in stripe order, then the
///     sweep's.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/ensemble.hpp"
#include "core/epoch_control.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "system/bit_grid.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"
#include "util/event_sort.hpp"
#include "util/flat_hash.hpp"

namespace sops::core {

/// Options of both sharded runners (core::ShardedChainOptions and
/// amoebot::ShardedOptions are aliases).
struct StripeEpochOptions {
  /// Worker threads for the stripe phase; 0 uses hardware_concurrency().
  /// The trajectory is identical for every value; threads == 1 runs
  /// strictly single-threaded.
  unsigned threads = 0;
  /// Expected events per epoch (sets Δ = target / Σ rates); 0 derives
  /// min(max(2n, 1024), 2^28) and lets the adaptive controller move it.
  /// An explicit value fixes the target for the whole run.
  std::uint64_t targetEventsPerEpoch = 0;
  /// Adapt the derived epoch target from the deferred-event fraction
  /// (core/epoch_control.hpp).  Ignored when targetEventsPerEpoch != 0.
  bool adaptiveEpochs = true;
  /// Per-particle Poisson activation rates; empty means all 1.0 (the
  /// paper's uniform activation).  Must be positive and match the particle
  /// count when present; π is unchanged, only selection frequencies shift.
  std::vector<double> rates;
};

/// Rejects a sharded-runner snapshot framed before
/// system::kMinShardedSnapshotVersion: older frames carry per-particle
/// clock and coin streams (before v4) or a partner-id plane record (v3,
/// v4) that today's runners neither have nor read.  Both runners call it
/// before they read anything.
inline void requireStripeEpochFrame(const system::SnapshotReader& r) {
  SOPS_REQUIRE(r.version() >= system::kMinShardedSnapshotVersion,
               "snapshot: sharded-runner frame v" +
                   std::to_string(r.version()) + " predates v" +
                   std::to_string(system::kMinShardedSnapshotVersion) +
                   ", the oldest sharded layout this build reads (per-epoch "
                   "stripe streams, no partner-id plane); it cannot be "
                   "resumed");
}

template <typename Kernel>
class StripeEpochExecutor {
 public:
  StripeEpochExecutor(std::uint64_t seed, std::size_t particles,
                      const StripeEpochOptions& options)
      : seed_(seed),
        particles_(particles),
        threads_(options.threads),
        adaptive_(options.targetEventsPerEpoch == 0 && options.adaptiveEpochs),
        controller_(particles),
        rates_(options.rates) {
    SOPS_REQUIRE(particles > 0, "sharded runner needs particles");
    SOPS_REQUIRE(particles <= std::numeric_limits<std::uint32_t>::max(),
                 "sharded runner: particle ids are 32-bit");
    // One epoch's deferred schedule lives in memory (~16 bytes/event); an
    // explicit target beyond the cap can only be a mis-keyed step count.
    SOPS_REQUIRE(options.targetEventsPerEpoch <= kMaxEventsPerEpoch,
                 "targetEventsPerEpoch must be at most 2^28");
    SOPS_REQUIRE(rates_.empty() || rates_.size() == particles,
                 "rates must be empty or give one rate per particle");
    double total = 0.0;
    for (const double rate : rates_) {
      SOPS_REQUIRE(rate > 0.0, "activation rates must be positive");
      total += rate;
    }
    if (!rates_.empty() &&
        std::all_of(rates_.begin(), rates_.end(),
                    [&](double rate) { return rate == rates_.front(); })) {
      uniformRate_ = rates_.front();
      rates_.clear();
    }
    totalRate_ = rates_.empty()
                     ? uniformRate_ * static_cast<double>(particles)
                     : total;
    epochTarget_ = options.targetEventsPerEpoch != 0
                       ? options.targetEventsPerEpoch
                       : derivedEpochTarget(particles);
    epochLength_ = static_cast<double>(epochTarget_) / totalRate_;
  }

  /// Installs a cooperative cancel token polled between epochs: once it
  /// trips, runAtLeast returns early (possibly with zero progress) at an
  /// epoch boundary — the only safe preemption points, and exactly the
  /// states saveState can serialize.  nullptr uninstalls.
  void setCancelToken(const CancelToken* cancel) noexcept { cancel_ = cancel; }

  /// Runs whole epochs until at least `minEvents` events have executed in
  /// this call (or the cancel token trips); returns the number executed.
  std::uint64_t runAtLeast(Kernel& kernel, std::uint64_t minEvents) {
    std::uint64_t executed = 0;
    while (executed < minEvents && !isCancelled(cancel_)) {
      executed += runEpoch(kernel);
    }
    return executed;
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] double epochLength() const noexcept { return epochLength_; }
  /// Current events-per-epoch target (fixed, or the adaptive controller's
  /// latest decision).
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return epochTarget_;
  }
  /// Events executed on the sequential sweep since construction.
  [[nodiscard]] std::uint64_t sweepEvents() const noexcept {
    return sweepEvents_;
  }

  /// Writes the schedule state after the runner's own prefix: sweep count,
  /// epoch target (history-dependent under the adaptive controller) and
  /// epoch index — a fixed 24 bytes, whatever the particle count.  The
  /// master seed and the rates come from the constructor; the runner
  /// writes now() itself, within its prefix.
  void saveState(system::SnapshotWriter& w) const {
    w.u64(sweepEvents_);
    w.u64(epochTarget_);
    w.u64(epoch_);
  }

  /// The schedule state one saveState wrote, with the runner's clock.
  struct SavedState {
    double now;
    std::uint64_t sweepEvents;
    std::uint64_t epochTarget;
    std::uint64_t epoch;
  };

  /// Reads what saveState wrote and checks it against this executor (built
  /// with the same seed and options) without changing it; `now` is the
  /// clock the runner read from its prefix, and `particles` the particle
  /// count of the restored system, which must be the count this executor
  /// was built for.  restoreState(const SavedState&) then adopts it, once
  /// the runner has checked the rest of its frame; it cannot throw on a
  /// state this accepted.
  [[nodiscard]] SavedState readState(system::SnapshotReader& r, double now,
                                     std::size_t particles) const {
    SOPS_REQUIRE(particles == particles_,
                 "snapshot: restored particle count does not match the "
                 "particle count the runner was built for");
    SavedState state{now, 0, 0, 0};
    state.sweepEvents = r.u64();
    state.epochTarget = r.u64();
    state.epoch = r.u64();
    SOPS_REQUIRE(adaptive_ || state.epochTarget == epochTarget_,
                 "snapshot: fixed epoch target does not match the "
                 "runner's options");
    SOPS_REQUIRE(!adaptive_ || controller_.admits(state.epochTarget),
                 "snapshot: epoch target outside the adaptive controller's "
                 "bounds");
    return state;
  }

  void restoreState(const SavedState& state) {
    if (adaptive_) controller_.setTarget(state.epochTarget);
    now_ = state.now;
    sweepEvents_ = state.sweepEvents;
    epochTarget_ = state.epochTarget;
    epoch_ = state.epoch;
    epochLength_ = static_cast<double>(epochTarget_) / totalRate_;
  }

 private:
  static constexpr std::uint64_t kStripeColumns = 64;
  /// Stream key of the deferred sweep; stripe keys (the clock streams)
  /// are column / 64 < 2^58.
  static constexpr std::uint64_t kSweepKey = ~std::uint64_t{0};
  /// Set on a stripe key to key that stripe's coin stream: never a stripe
  /// key, never the sweep key.
  static constexpr std::uint64_t kCoinKeyBit = std::uint64_t{1} << 63;
  /// Rings drawn ahead of running them.  A constant, not an option: clock
  /// and coin draws never share a stream, so the trajectory does not
  /// depend on it.
  static constexpr std::size_t kBatchRings = 32;
  using Tally = typename Kernel::Tally;

  /// One deferred activation.  The sweep runs them in (time, particle)
  /// order, and reproducibility across thread counts rests on the
  /// tie-break.
  struct Event {
    double time;
    std::uint32_t particle;

    friend bool operator<(const Event& a, const Event& b) noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.particle < b.particle;
    }
  };

  /// Reused per-stripe buffers, one per buffer slot (the stripe index
  /// over a flat window, first-touch over a tiled one).  Cache-line
  /// aligned so workers' tallies never share a line.
  struct alignas(64) Slot {
    std::vector<std::uint32_t> particles;  ///< P_s, ascending ids
    std::vector<Event> deferred;
    std::uint64_t rings = 0;  ///< events this epoch, run or deferred
    Tally tally{};
  };

  [[nodiscard]] static std::uint64_t columnOf(lattice::TriPoint anchor,
                                              std::int64_t originX) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(anchor.x) -
                                      originX);
  }

  /// Buckets every particle into its stripe's slot, lists the active
  /// slots in ascending stripe order, and lists them again heaviest first
  /// for the workers.
  void bucket(const Kernel& kernel, const system::BitGrid& grid) {
    const std::int64_t originX = grid.originX();
    activeSlots_.clear();
    stripeSlots_.clear();
    stripeOfSlot_.clear();
    if (!grid.tiled()) {
      const auto stripes = static_cast<std::size_t>(
          (grid.width() + kStripeColumns - 1) / kStripeColumns);
      if (slots_.size() < stripes) slots_.resize(stripes);
      for (Slot& slot : slots_) slot.particles.clear();
    }
    for (std::uint32_t i = 0; i < particles_; ++i) {
      const std::uint64_t stripe = columnOf(kernel.anchor(i), originX) >> 6;
      std::size_t slot = stripe;
      if (grid.tiled()) {
        if (const std::uint32_t* found = stripeSlots_.find(stripe)) {
          slot = *found;
        } else {
          slot = stripeOfSlot_.size();
          stripeSlots_.insert(stripe, static_cast<std::uint32_t>(slot));
          stripeOfSlot_.push_back(stripe);
          if (slots_.size() <= slot) slots_.resize(slot + 1);
          slots_[slot].particles.clear();
        }
      }
      slots_[slot].particles.push_back(i);
    }
    if (grid.tiled()) {
      for (std::size_t s = 0; s < stripeOfSlot_.size(); ++s) {
        activeSlots_.push_back(s);
      }
      std::sort(activeSlots_.begin(), activeSlots_.end(),
                [&](std::size_t a, std::size_t b) {
                  return stripeOfSlot_[a] < stripeOfSlot_[b];
                });
    } else {
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (!slots_[s].particles.empty()) activeSlots_.push_back(s);
      }
    }
    // Largest stripe first: the workers claim slots in this order, so the
    // heaviest stripe starts at once instead of finishing the phase alone.
    // Which worker runs which stripe never touches the trajectory.
    workOrder_ = activeSlots_;
    std::stable_sort(workOrder_.begin(), workOrder_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return slots_[a].particles.size() >
                              slots_[b].particles.size();
                     });
  }

  /// The stripe phase of one slot, on a worker thread: walks the stripe's
  /// superposed clock over [now, epochEnd) a batch at a time, executes
  /// interior events as they ring and defers the rest.  Touches only this
  /// stripe's plane words, its own streams and its own slot.  Flattened so
  /// the event body (chainEventStep for the chain runner) inlines here
  /// even where GCC keeps an out-of-line copy for other callers; the
  /// sequential engine's own call sites are left to the inliner.
  [[gnu::flatten]] void runStripe(Kernel& kernel, Slot& slot,
                                 std::uint64_t stripe, std::int64_t originX,
                                 double epochEnd) {
    slot.deferred.clear();
    slot.rings = 0;
    slot.tally = Tally{};
    const std::vector<std::uint32_t>& members = slot.particles;
    const auto count = static_cast<std::uint32_t>(members.size());
    const bool thinned = !rates_.empty();
    double maxRate = uniformRate_;
    if (thinned) {
      maxRate = 0.0;
      for (const std::uint32_t i : members) {
        maxRate = std::max(maxRate, rates_[i]);
      }
    }
    const double gapScale = 1.0 / (static_cast<double>(count) * maxRate);
    rng::Random clock = rng::epochStream(seed_, epoch_, stripe);
    rng::Random coin = rng::epochStream(seed_, epoch_, stripe | kCoinKeyBit);
    std::array<Event, kBatchRings> batch;
    double t = now_;
    bool open = true;
    while (open) {
      // Draw the next rings from the clock stream alone, and start each
      // picked particle's anchor load while the rest are drawn.
      std::size_t filled = 0;
      while (filled < kBatchRings) {
        t += clock.standardExponential() * gapScale;
        if (t >= epochEnd) {
          open = false;
          break;
        }
        const std::uint32_t i = members[clock.below(count)];
        if (thinned && !(clock.uniform() * maxRate < rates_[i])) continue;
        kernel.prefetch(i);
        batch[filled++] = {t, i};
      }
      slot.rings += filled;
      for (std::size_t b = 0; b < filled; ++b) {
        const std::uint32_t i = batch[b].particle;
        // Evaluated on the *current* anchor, when the event runs: once a
        // particle is deferred it cannot move again this phase, so the
        // decision is stable.
        const lattice::TriPoint anchor = kernel.anchor(i);
        const std::uint64_t col = columnOf(anchor, originX);
        const std::uint64_t inStripe = col & (kStripeColumns - 1);
        if ((col >> 6) == stripe && inStripe >= Kernel::kHaloColumns &&
            inStripe < kStripeColumns - Kernel::kHaloColumns &&
            kernel.stripeSafe(anchor)) {
          kernel.runEvent(i, coin, slot.tally);
        } else {
          slot.deferred.push_back(batch[b]);
        }
      }
    }
  }

  /// One epoch [now, now + Δ): kernel pre-phase, bucketing, stripe phase,
  /// join, deferred sweep, next-Δ decision.  Returns the events executed.
  std::uint64_t runEpoch(Kernel& kernel) {
    const double epochEnd = now_ + epochLength_;
    kernel.prepareEpoch();
    const system::BitGrid& grid = kernel.grid();
    const std::int64_t originX = grid.originX();
    const bool tiled = grid.tiled();
    bucket(kernel, grid);
    parallelForIndex(workOrder_.size(), threads_, [&](std::size_t k) {
      const std::size_t slot = workOrder_[k];
      runStripe(kernel, slots_[slot], tiled ? stripeOfSlot_[slot] : slot,
                originX, epochEnd);
    });
    // Merge in stripe order, fixed regardless of which thread ran what.
    // (time, particle) keys are unique, so one sort of the concatenated
    // deferred lists gives the exact merged schedule.
    std::uint64_t total = 0;
    sweep_.clear();
    for (const std::size_t s : activeSlots_) {
      kernel.mergeTally(slots_[s].tally);
      total += slots_[s].rings;
      sweep_.insert(sweep_.end(), slots_[s].deferred.begin(),
                    slots_[s].deferred.end());
    }
    if (!sweep_.empty()) {
      util::sortEventsInWindow(sweep_, sweepScratch_, now_, epochEnd,
                               [](const Event& e) { return e.time; });
    }

    // The sequential sweep, by original timestamps.
    Tally sweepTally{};
    rng::Random coin = rng::epochStream(seed_, epoch_, kSweepKey);
    for (const Event& event : sweep_) {
      kernel.runEvent(event.particle, coin, sweepTally);
    }
    kernel.mergeTally(sweepTally);
    sweepEvents_ += sweep_.size();

    if (adaptive_) epochTarget_ = controller_.update(sweep_.size(), total);
    now_ = epochEnd;
    epochLength_ = static_cast<double>(epochTarget_) / totalRate_;
    ++epoch_;
    return total;
  }

  std::uint64_t seed_;
  std::size_t particles_;
  unsigned threads_;
  bool adaptive_;
  double now_ = 0.0;
  double epochLength_ = 1.0;
  std::uint64_t epochTarget_ = 0;
  std::uint64_t epoch_ = 0;  ///< index of the next epoch; keys its streams
  std::uint64_t sweepEvents_ = 0;
  AdaptiveEpochController controller_;
  const CancelToken* cancel_ = nullptr;

  /// Per-particle rates when they differ; empty when every particle rings
  /// at uniformRate_.
  std::vector<double> rates_;
  double uniformRate_ = 1.0;
  double totalRate_ = 0.0;

  std::vector<Slot> slots_;
  std::vector<std::size_t> activeSlots_;  ///< in ascending stripe order
  std::vector<std::size_t> workOrder_;    ///< active slots, largest first
  util::FlatMap64<std::uint32_t> stripeSlots_;  ///< tiled: stripe → slot
  std::vector<std::uint64_t> stripeOfSlot_;     ///< tiled: slot → stripe
  std::vector<Event> sweep_;
  util::EventSortScratch<Event> sweepScratch_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_STRIPE_EPOCH_EXECUTOR_HPP
