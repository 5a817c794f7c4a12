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
/// **Clocks and coins.**  Each particle owns two decorrelated RNG streams
/// seeded once from the master seed (rng::particleStream — mix64 of
/// (seed, 2i+1) and (seed, 2i+2)): one drives its exponential waiting
/// times, one its per-event draws.  The streams live in SoA banks
/// (rng/stream_bank.hpp), and the clock bank draws a whole epoch's firing
/// times in one batched sequential pass (PoissonClockBank::fillEpoch).
/// Every draw is a pure function of (seed, particle, draw index) — never of
/// thread interleaving — which, with the deterministic stripe and halo
/// rules below, makes the trajectory a pure function of the seed at every
/// thread count.  The embedded jump chain selects particle i with
/// probability rate_i / Σ rates (uniform when all rates are 1).
///
/// **Stripes.**  The occupancy window is cut into vertical stripes of 64
/// lattice columns — exactly the bit planes' 64-bit word columns, so no two
/// stripes touch the same word of any plane allocated with the window's
/// geometry.  An event of a particle whose anchor column sits in the
/// in-stripe interior band [halo, 64 − halo) reads and writes only inside
/// its stripe, where `halo` is the kernel's interaction reach in columns.
/// Interior events of different stripes therefore commute, and each stripe
/// runs its own events sequentially in (time, particle) order on a worker
/// of core::parallelForIndex.
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
/// **Epoch sizing and overlap.**  Epoch length Δ = target / Σ rates.  An
/// explicit targetEventsPerEpoch fixes the target; the default adapts it
/// each epoch from the deferred-event fraction (core/epoch_control.hpp — a
/// thread-count-invariant signal).  The next epoch's target is decided
/// before the sweep, so the next batched fill can run on a persistent
/// helper thread (core::OverlapWorker) while the coordinating thread
/// sweeps: fillEpoch reads only the clock bank, which no event touches.
/// The helper is off at threads == 1, which therefore runs strictly
/// single-threaded.  Trajectories are identical with and without it.
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
///   - `stripeSafe(anchor)` — the extra condition for running in a stripe;
///   - `prepareEpoch()` — the sequential pre-phase before each epoch;
///   - `runEvent(i, coin, tally)` — one event of particle i;
///   - `mergeTally(tally)` — folds a tally in, in stripe order, then the
///     sweep's.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/cancel.hpp"
#include "core/ensemble.hpp"
#include "core/epoch_control.hpp"
#include "core/overlap_worker.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "rng/stream_bank.hpp"
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
  /// The trajectory is identical for every value.  threads == 1 also
  /// disables the draw/sweep overlap helper, so it runs strictly
  /// single-threaded.
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

template <typename Kernel>
class StripeEpochExecutor {
 public:
  StripeEpochExecutor(std::uint64_t seed, std::size_t particles,
                      const StripeEpochOptions& options)
      : threads_(options.threads),
        adaptive_(options.targetEventsPerEpoch == 0 && options.adaptiveEpochs),
        controller_(particles) {
    SOPS_REQUIRE(particles > 0, "sharded runner needs particles");
    SOPS_REQUIRE(particles <= std::numeric_limits<std::uint32_t>::max(),
                 "sharded runner: particle ids are 32-bit");
    // One epoch's schedule lives in memory (~16 bytes/event); an explicit
    // target beyond the cap can only be a mis-keyed step count.
    SOPS_REQUIRE(options.targetEventsPerEpoch <= kMaxEventsPerEpoch,
                 "targetEventsPerEpoch must be at most 2^28");
    SOPS_REQUIRE(options.rates.empty() || options.rates.size() == particles,
                 "rates must be empty or give one rate per particle");
    epochTarget_ = options.targetEventsPerEpoch != 0
                       ? options.targetEventsPerEpoch
                       : derivedEpochTarget(particles);
    // The clock bank also draws each particle's first firing time.
    clock_ = rng::PoissonClockBank(seed, particles, 1, options.rates);
    coin_ = rng::StreamBank(seed, particles, 2);
    epochLength_ = static_cast<double>(epochTarget_) / clock_.totalRate();
  }

  /// Installs a cooperative cancel token polled between epochs: once it
  /// trips, runAtLeast returns early (possibly with zero progress) at an
  /// epoch boundary — the only safe preemption points, and exactly the
  /// states saveState can serialize.  nullptr uninstalls.
  void setCancelToken(const CancelToken* cancel) noexcept { cancel_ = cancel; }

  /// Runs whole epochs until at least `minEvents` events have executed in
  /// this call (or the cancel token trips); returns the number executed.
  std::uint64_t runAtLeast(Kernel& kernel, std::uint64_t minEvents) {
    const RunGuard guard(*this);
    std::uint64_t executed = 0;
    while (executed < minEvents || overlapPending_) {
      // A pre-drawn epoch must be consumed before stopping (its draws have
      // already advanced the clock bank), so a cancel with a fill in flight
      // runs exactly one more epoch — which also skips the next pre-draw.
      if (isCancelled(cancel_) && !overlapPending_) break;
      executed += runEpoch(kernel, executed, minEvents);
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
  /// epoch target (history-dependent under the adaptive controller), and
  /// per particle its next firing time plus both streams' engine words
  /// (the banks' master seed and the rates come from the constructor).
  /// The runner writes now() itself, within its prefix.
  void saveState(system::SnapshotWriter& w) const {
    SOPS_REQUIRE(!overlapPending_,
                 "saveState: overlap pre-draw still pending (only legal "
                 "between runs)");
    w.u64(sweepEvents_);
    w.u64(epochTarget_);
    w.u64(clock_.size());
    for (std::size_t i = 0; i < clock_.size(); ++i) {
      w.f64(clock_.nextTime(i));
      system::writeEngineState(w, clock_.state(i));
      system::writeEngineState(w, coin_.state(i));
    }
  }

  /// Inverse of saveState on an executor built with the same seed and
  /// options; `now` is the clock the runner read from its prefix, and
  /// `particles` the particle count of the restored system.  The stream
  /// count must match both the banks and that system.
  void restoreState(system::SnapshotReader& r, double now,
                    std::size_t particles) {
    SOPS_REQUIRE(!overlapPending_,
                 "restoreState: overlap pre-draw still pending");
    now_ = now;
    sweepEvents_ = r.u64();
    const std::uint64_t target = r.u64();
    if (adaptive_) {
      controller_.setTarget(target);
      epochTarget_ = target;
    } else {
      SOPS_REQUIRE(target == epochTarget_,
                   "snapshot: fixed epoch target does not match the "
                   "runner's options");
    }
    const std::uint64_t n = r.u64();
    SOPS_REQUIRE(n == clock_.size() && n == particles,
                 "snapshot: per-particle stream count does not match the "
                 "particle count");
    for (std::size_t i = 0; i < n; ++i) {
      clock_.setNextTime(i, r.f64());
      clock_.setState(i, system::readEngineState(r));
      coin_.setState(i, system::readEngineState(r));
    }
    epochLength_ = static_cast<double>(epochTarget_) / clock_.totalRate();
  }

 private:
  static constexpr std::uint64_t kStripeColumns = 64;
  using Tally = typename Kernel::Tally;

  /// One pending activation.  The (time, particle) order is THE schedule
  /// order — the stripe pass and the sweep both sort by it, and
  /// reproducibility across thread counts rests on the tie-break.
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
    std::vector<std::uint32_t> particles;
    std::vector<Event> events;
    std::vector<Event> deferred;
    util::EventSortScratch<Event> scratch;
    Tally tally{};
  };

  /// Per-run cleanup, also when an epoch throws: a pre-draw in flight
  /// must finish before unwinding (it writes the clock bank and draws_);
  /// its draws stay pending as a valid continuation for the next run.
  class RunGuard {
   public:
    explicit RunGuard(StripeEpochExecutor& executor) noexcept
        : executor_(executor) {}
    ~RunGuard() {
      if (executor_.overlapPending_) {
        try {
          executor_.overlap_->wait();
        } catch (...) {
          executor_.overlapPending_ = false;  // fill died; buffer unusable
        }
      }
    }
    RunGuard(const RunGuard&) = delete;
    RunGuard& operator=(const RunGuard&) = delete;

   private:
    StripeEpochExecutor& executor_;
  };

  /// Every firing time lies in the epoch window [begin, end), so the
  /// bucket sort applies; its per-bucket comparison is Event's operator<.
  static void sortEvents(std::vector<Event>& events,
                         util::EventSortScratch<Event>& scratch, double begin,
                         double end) {
    util::sortEventsInWindow(events, scratch, begin, end,
                             [](const Event& e) { return e.time; });
  }

  [[nodiscard]] static std::uint64_t columnOf(lattice::TriPoint anchor,
                                              std::int64_t originX) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(anchor.x) -
                                      originX);
  }

  void runEvent(Kernel& kernel, std::uint32_t i, Tally& tally) {
    rng::StreamBank::Use use = coin_.use(i);
    kernel.runEvent(i, use.rng(), tally);
  }

  /// Buckets every particle that fires this epoch into its stripe's slot
  /// and lists the active slots in ascending stripe order.
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
    for (std::uint32_t i = 0; i < clock_.size(); ++i) {
      if (draws_.count(i) == 0) continue;
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
  }

  /// The stripe phase of one slot, on a worker thread: gathers its
  /// particles' pre-drawn firing times, sorts once, executes interior
  /// events and defers the rest.  Touches only this stripe's plane words,
  /// its particles' coin streams and its own slot.
  void runStripe(Kernel& kernel, Slot& slot, std::uint64_t stripe,
                 std::int64_t originX, double epochEnd) {
    slot.events.clear();
    slot.deferred.clear();
    slot.tally = Tally{};
    for (const std::uint32_t i : slot.particles) {
      const std::uint64_t end = draws_.offsets[i + 1];
      for (std::uint64_t k = draws_.offsets[i]; k < end; ++k) {
        slot.events.push_back({draws_.times[k], i});
      }
    }
    sortEvents(slot.events, slot.scratch, now_, epochEnd);
    for (const Event& event : slot.events) {
      // Evaluated on the *current* anchor: once a particle is deferred it
      // cannot move again this phase, so the decision is stable.
      const lattice::TriPoint anchor = kernel.anchor(event.particle);
      const std::uint64_t col = columnOf(anchor, originX);
      const std::uint64_t inStripe = col & (kStripeColumns - 1);
      if ((col >> 6) == stripe && inStripe >= Kernel::kHaloColumns &&
          inStripe < kStripeColumns - Kernel::kHaloColumns &&
          kernel.stripeSafe(anchor)) {
        runEvent(kernel, event.particle, slot.tally);
      } else {
        slot.deferred.push_back(event);
      }
    }
  }

  /// One epoch [now, now + Δ): batched draw (or overlap handoff), kernel
  /// pre-phase, stripe phase, join, next-Δ decision and pre-draw submit,
  /// deferred sweep.  A pre-draw is submitted only when this call goes on
  /// (executed + this epoch < minEvents), so bursts never end with a fill
  /// pending.  Returns the events executed (all of the epoch's draws).
  std::uint64_t runEpoch(Kernel& kernel, std::uint64_t executedBefore,
                         std::uint64_t minEvents) {
    const double epochEnd = now_ + epochLength_;
    // fillEpoch is a pure function of the clock bank, so the helper's
    // pre-draw and a fill here give identical draws.
    if (overlapPending_) {
      overlap_->wait();
      overlapPending_ = false;
      SOPS_DASSERT(pendingEnd_ == epochEnd);
    } else {
      clock_.fillEpoch(epochEnd, draws_);
    }
    const std::uint64_t total = draws_.total();

    kernel.prepareEpoch();
    const system::BitGrid& grid = kernel.grid();
    const std::int64_t originX = grid.originX();
    const bool tiled = grid.tiled();
    bucket(kernel, grid);
    parallelForIndex(activeSlots_.size(), threads_, [&](std::size_t k) {
      const std::size_t slot = activeSlots_[k];
      runStripe(kernel, slots_[slot], tiled ? stripeOfSlot_[slot] : slot,
                originX, epochEnd);
    });
    // Merge in stripe order, fixed regardless of which thread ran what.
    // (time, particle) keys are unique, so one sort of the concatenated
    // deferred lists gives the exact merged schedule.
    sweep_.clear();
    for (const std::size_t s : activeSlots_) {
      kernel.mergeTally(slots_[s].tally);
      sweep_.insert(sweep_.end(), slots_[s].deferred.begin(),
                    slots_[s].deferred.end());
    }
    if (!sweep_.empty()) sortEvents(sweep_, sweepScratch_, now_, epochEnd);

    if (adaptive_) epochTarget_ = controller_.update(sweep_.size(), total);
    const double nextLength =
        static_cast<double>(epochTarget_) / clock_.totalRate();
    const double nextEnd = epochEnd + nextLength;
    if (threads_ != 1 && !isCancelled(cancel_) &&
        executedBefore + total < minEvents) {
      if (!overlap_) overlap_ = std::make_unique<OverlapWorker>();
      overlapPending_ = true;
      pendingEnd_ = nextEnd;
      overlap_->submit([this, nextEnd] { clock_.fillEpoch(nextEnd, draws_); });
    }

    // The sequential sweep, by original timestamps.  The helper touches
    // only the clock bank and draws_, never the kernel's state or the coin
    // bank, so it runs concurrently with this loop.
    Tally sweepTally{};
    for (const Event& event : sweep_) {
      runEvent(kernel, event.particle, sweepTally);
    }
    kernel.mergeTally(sweepTally);
    sweepEvents_ += sweep_.size();

    now_ = epochEnd;
    epochLength_ = nextLength;
    return total;
  }

  unsigned threads_;
  bool adaptive_;
  double now_ = 0.0;
  double epochLength_ = 1.0;
  std::uint64_t epochTarget_ = 0;
  std::uint64_t sweepEvents_ = 0;
  AdaptiveEpochController controller_;
  const CancelToken* cancel_ = nullptr;

  rng::PoissonClockBank clock_;  ///< SoA waiting-time streams + rates
  rng::StreamBank coin_;         ///< SoA per-event draw streams

  /// The epoch's firing times.  Dead once the stripes have gathered them,
  /// so the overlap helper refills it for the next epoch during the sweep.
  rng::PoissonClockBank::EpochDraws draws_;
  bool overlapPending_ = false;
  double pendingEnd_ = 0.0;
  std::unique_ptr<OverlapWorker> overlap_;

  std::vector<Slot> slots_;
  std::vector<std::size_t> activeSlots_;  ///< in ascending stripe order
  util::FlatMap64<std::uint32_t> stripeSlots_;  ///< tiled: stripe → slot
  std::vector<std::uint64_t> stripeOfSlot_;     ///< tiled: slot → stripe
  std::vector<Event> sweep_;
  util::EventSortScratch<Event> sweepScratch_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_STRIPE_EPOCH_EXECUTOR_HPP
