#ifndef SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP
#define SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP

/// \file sharded_chain_runner.hpp
/// Multi-core single-replica execution of the biased chain: the amoebot
/// stripe discipline (amoebot/parallel_scheduler.hpp) applied to the
/// weight models of core::BiasedChainEngine.
///
/// The chain M activates one particle per step, which pins a replica to
/// one core no matter how large n grows.  Poissonization breaks the
/// serialization: give every particle an independent exponential clock
/// and execute clock events instead of uniform draws — the embedded
/// jump chain selects particle i with probability rate_i / Σ rates (the
/// uniform chain when all rates are 1), so each event is exactly one
/// Metropolis proposal of the engine's weight model, and the per-event
/// body is the *same* chainEventStep() the sequential engine runs.
///
/// **Stripes.**  The occupancy window is cut into vertical stripes of 64
/// lattice columns — exactly the bit planes' 64-bit word columns, so no
/// two stripes ever touch the same word of the occupancy grid, the
/// models' shadow planes, or the partner-id plane (all allocated with the
/// same geometry).  One event of a particle at column c reads within
/// Model::kInteractionRadius columns of c and writes within radius−1, so
/// an event whose particle sits in the in-stripe interior band
/// [radius, 64 − radius) is processed entirely inside its stripe.
/// Interior events of different stripes therefore commute, and each
/// stripe runs its own events sequentially in (time, particle) order —
/// on any number of threads with identical results.  The radius is the
/// model's declaration (ModelInteractionRadius): 2 for pure movement
/// (ring reads), 3 for pair moves (separation's swap partner and
/// alignment's rotation interact across a shared edge whose ring extends
/// one column further).
///
/// **Halo deferral.**  Events of particles inside a halo band — or close
/// enough to the window edge that an accepted move could force a plane
/// regrow (BitGrid::coversInteriorBy(pos, kInteriorMargin + 1) fails) —
/// are not executed in the stripe phase: the owning stripe routes them,
/// with their original Poisson timestamps, to a deferred list.  A
/// particle that wanders into a band mid-epoch is deferred from that
/// event on (its position then cannot change until the sweep — only a
/// particle's own events move it — so the decision is stable).  After the
/// stripes join, the coordinating thread executes all deferred events in
/// (time, particle) order — a sequential tail of the epoch's schedule,
/// free to regrow windows and resync planes.
///
/// **Clocks and coins.**  Each particle owns two decorrelated RNG streams
/// seeded once from the master seed (rng::particleStream — mix64 of
/// (seed, 2i+1) and (seed, 2i+2), the discipline shared with the amoebot
/// runner): one drives its exponential waiting times, one its per-event
/// draws (aux coin, direction/orientation, Metropolis uniform).  The
/// streams live in SoA banks (rng/stream_bank.hpp) — 32-byte packed
/// engine states, one cache line per touched stream instead of the two
/// scattered lines the old AoS `std::vector<rng::Random>` cost — and the
/// clock bank fills a whole epoch's waiting times in one batched
/// sequential pass (PoissonClockBank::fillEpoch) rather than one
/// scattered draw per event.  Every draw remains a pure function of
/// (seed, particle, draw index) — never of thread interleaving — which,
/// with the deterministic stripe/halo rules above, makes the whole
/// trajectory a pure function of the seed.  tests/sharded_chain_test.cpp
/// pins this across thread counts for all three shipped models.
///
/// **Epoch sizing and overlap.**  Epoch length Δ = target / Σ rates.  An
/// explicit targetEventsPerEpoch fixes the target; the default adapts it
/// each epoch from the deferred-event fraction (core/epoch_control.hpp —
/// a thread-count-invariant signal, so adaptivity preserves the
/// determinism contract).  Because the clock draws depend only on the
/// clock streams, never on particle positions, the next epoch's batched
/// fill can run on a persistent helper thread while the coordinating
/// thread executes this epoch's sequential sweep — hiding most of the
/// Amdahl serial fraction.  The helper is disabled at threads == 1, which
/// therefore measures the honest single-thread premium.
///
/// **Heterogeneous rates.**  ShardedChainOptions::rates gives particle i
/// activation rate rate_i > 0 (empty = all 1.0, the paper's uniform
/// chain).  Each accepted move's reverse is proposed by the *same*
/// particle's clock (movement: the moved particle; swap and rotation:
/// per-particle coins pair i with i), so the Metropolis ratio — and with
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
/// (pre-registered thresholds, tests/sharded_chain_test.cpp) — the same
/// style of evidence PR 2 established for the sharded amoebot runner.
///
/// During epochs the ParticleSystem's cell→id hash index — the one
/// structure every move would otherwise share — is suspended
/// (ParticleSystem::suspendIndex) and restored on exit.
///
/// **Tiled windows.**  Configurations too spread out for one flat window
/// run on BitGrid's tiled backend: same word-exclusive stripe discipline
/// (tile columns are 64-aligned, so stripes never split a word), but the
/// allocated-tile bounding box can span astronomically many columns, so
/// stripes are keyed sparsely (util::FlatMap64) instead of indexed
/// densely, with slots assigned in a sequential first-touch pass that is
/// the same for every thread count.  Pair-move models additionally defer
/// events whose neighborhood the paged partner-id plane does not cover
/// (ParticleIdPlane::coversNear) — directory growth, like window growth,
/// belongs to the sequential pre-phase and sweep only.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/cancel.hpp"
#include "core/ensemble.hpp"
#include "core/epoch_control.hpp"
#include "core/overlap_worker.hpp"
#include "rng/stream_bank.hpp"
#include "system/metrics.hpp"
#include "util/event_sort.hpp"
#include "util/flat_hash.hpp"

namespace sops::core {

struct ShardedChainOptions {
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
  /// paper's uniform-activation chain).  Must be positive and match the
  /// particle count when present.  π is unchanged (see file comment);
  /// only selection frequencies shift.
  std::vector<double> rates;
};

template <typename Model>
  requires ChainWeightModel<Model>
class ShardedChainRunner {
 public:
  ShardedChainRunner(system::ParticleSystem initial, Model model,
                     std::uint64_t seed, ShardedChainOptions options = {})
      : system_(std::move(initial)), model_(std::move(model)),
        options_(std::move(options)), controller_(system_.size()) {
    const std::size_t n = system_.size();
    SOPS_REQUIRE(n > 0, "sharded chain runner needs particles");
    (void)checkedParticleDrawBound(n);  // 32-bit particle ids
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

    // One epoch's schedule lives in memory (~16 bytes/event); an explicit
    // target beyond the cap can only be a mis-keyed step count, and the
    // derived default is clamped to the same cap (an unclamped 2n once
    // let a legal huge-n system build a multi-GiB schedule).
    SOPS_REQUIRE(options_.targetEventsPerEpoch <= kMaxEventsPerEpoch,
                 "targetEventsPerEpoch must be at most 2^28");
    SOPS_REQUIRE(options_.rates.empty() || options_.rates.size() == n,
                 "rates must be empty or give one rate per particle");
    adaptive_ =
        options_.targetEventsPerEpoch == 0 && options_.adaptiveEpochs;
    epochTarget_ = options_.targetEventsPerEpoch != 0
                       ? options_.targetEventsPerEpoch
                       : derivedEpochTarget(n);

    // SoA stream banks, seeded once with the discipline shared with the
    // amoebot runner (rng::particleStream); the clock bank also draws
    // each particle's first firing time, as the AoS constructor did.
    clock_ = rng::PoissonClockBank(seed, n, 1, options_.rates);
    coin_ = rng::StreamBank(seed, n, 2);
    epochLength_ = static_cast<double>(epochTarget_) / clock_.totalRate();
  }

  /// Installs a cooperative cancel token polled between epochs: once it
  /// trips, runAtLeast/runFor return early (possibly with zero progress)
  /// with the system fully consistent — epoch boundaries are the runner's
  /// only safe preemption points, and they are also exactly the states
  /// saveState() can serialize.  nullptr uninstalls.
  void setCancelToken(const CancelToken* cancel) noexcept { cancel_ = cancel; }

  /// Runs whole epochs until at least `minEvents` chain events have
  /// executed in this call (or the cancel token trips); returns the
  /// number executed.  The system's id index is suspended for the
  /// duration and restored before returning, so the system is fully
  /// consistent (particleAt()) between calls.
  std::uint64_t runAtLeast(std::uint64_t minEvents) {
    const IndexRestore restore(system_);
    const OverlapDrain drain(*this);
    std::uint64_t executed = 0;
    while (executed < minEvents || overlapPending_) {
      // A pre-drawn epoch must be consumed before stopping (its draws
      // have already advanced the clock bank), so a cancel with a fill in
      // flight runs exactly one more epoch — which also skips the next
      // pre-draw, unwinding the pipeline.
      if (isCancelled(cancel_) && !overlapPending_) break;
      executed += runEpoch(
          [&](std::uint64_t after, double) { return after < minEvents; },
          executed);
    }
    return executed;
  }

  /// Runs whole epochs until simulated time advances by `duration` (or
  /// the cancel token trips).
  std::uint64_t runFor(double duration) {
    const IndexRestore restore(system_);
    const OverlapDrain drain(*this);
    const double target = now_ + duration;
    std::uint64_t executed = 0;
    while (now_ < target || overlapPending_) {
      if (isCancelled(cancel_) && !overlapPending_) break;
      executed += runEpoch(
          [&](std::uint64_t, double end) { return end < target; }, executed);
    }
    return executed;
  }

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return system_;
  }
  [[nodiscard]] const Model& model() const noexcept { return model_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] double epochLength() const noexcept { return epochLength_; }

  /// Current events-per-epoch target (fixed, or the adaptive controller's
  /// latest decision).
  [[nodiscard]] std::uint64_t epochTarget() const noexcept {
    return epochTarget_;
  }

  /// Events executed on the sequential sweep (halo + window-edge
  /// deferrals) since construction — the serial fraction of the run.
  [[nodiscard]] std::uint64_t sweepEvents() const noexcept {
    return sweepEventCount_;
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
  /// model aux state, tallies, simulated clock, the current epoch target
  /// (history-dependent under the adaptive controller), and every
  /// particle's pending event time plus both private stream states (the
  /// banks' master seed is the constructor's, so only the 4 engine words
  /// per stream are stored).  Only legal between runAtLeast/runFor calls
  /// (epoch boundaries), where the index is live and the epoch buffers —
  /// including any overlap pre-draw — are empty.
  void saveState(system::SnapshotWriter& w) const {
    SOPS_REQUIRE(!system_.indexSuspended(),
                 "saveState: only legal between runs (index suspended)");
    SOPS_REQUIRE(!overlapPending_,
                 "saveState: overlap pre-draw still pending (only legal "
                 "between runs)");
    system::writeParticleSystem(w, system_);
    model_.serialize(w);
    writeEngineStats(w, stats_);
    w.i64(edges_);
    w.f64(now_);
    w.u64(sweepEventCount_);
    w.u64(epochTarget_);
    w.u64(system_.size());
    for (std::size_t i = 0; i < system_.size(); ++i) {
      w.f64(clock_.nextTime(i));
      system::writeEngineState(w, clock_.state(i));
      system::writeEngineState(w, coin_.state(i));
    }
    // Snapshot v3: the partner-id plane's mode and (when paged) its exact
    // page directory — the striped deferral predicate is a function of
    // the allocated-page set, so a re-derived directory would change the
    // trajectory.
    if constexpr (kMaintainsIds) partnerIds_.saveState(w);
  }

  /// Inverse of saveState on a runner constructed from the same spec
  /// (same model options, seed, epoch/rate options).  Epoch bounds,
  /// decision table, rates, and the derived planes come from the
  /// constructor; everything history-dependent is restored, so the runner
  /// continues the snapshotted trajectory exactly (at any thread count).
  void restoreState(system::SnapshotReader& r) {
    SOPS_REQUIRE(!overlapPending_,
                 "restoreState: overlap pre-draw still pending");
    system_ = system::readParticleSystem(r);
    model_.deserialize(r);
    stats_ = readEngineStats(r);
    edges_ = r.i64();
    now_ = r.f64();
    sweepEventCount_ = r.u64();
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
    SOPS_REQUIRE(n == system_.size(),
                 "snapshot: per-particle stream count does not match the "
                 "particle count");
    for (std::uint64_t i = 0; i < n; ++i) {
      clock_.setNextTime(i, r.f64());
      clock_.setState(i, system::readEngineState(r));
      coin_.setState(i, system::readEngineState(r));
    }
    epochLength_ = static_cast<double>(epochTarget_) / clock_.totalRate();
    (void)checkedParticleDrawBound(system_.size());
    model_.attach(system_);
    if constexpr (kMaintainsIds) {
      if (r.version() >= 3) {
        // v3 records the plane's mode (and the exact page directory when
        // paged — restoreState rebuilds it key for key).
        partnerIds_.restoreState(r, system_);
      } else {
        // v2 snapshots predate the paged plane, so the plane was flat; a
        // fresh rebuild is exact there.  The restored window geometry can
        // equal the stale fingerprint, so a plain sync() would keep
        // pre-restore ids.
        partnerIds_.invalidate();
        partnerIds_.sync(system_);
      }
    }
    SOPS_REQUIRE(system::countEdges(system_) == edges_,
                 "snapshot: restored edge count disagrees with the "
                 "configuration — corrupt or mismatched snapshot");
  }

 private:
  static constexpr bool kMaintainsIds = ModelNeedsPartnerIds<Model>::value;
  static constexpr std::uint64_t kStripeColumns = 64;
  static constexpr std::uint64_t kHaloColumns =
      static_cast<std::uint64_t>(ModelInteractionRadius<Model>::value);
  static_assert(ModelInteractionRadius<Model>::value >= 1 &&
                    ModelInteractionRadius<Model>::value <= 8,
                "interaction radius must leave a non-trivial stripe interior");
  /// One pending activation.  The (time, particle) order below is THE
  /// schedule order — both the per-stripe pass and the deferred sweep
  /// sort by it, and trajectory reproducibility across thread counts
  /// rests on the tie-break staying identical in both places.
  struct Event {
    double time;
    std::uint32_t particle;

    friend bool operator<(const Event& a, const Event& b) noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.particle < b.particle;
    }
  };

  /// Sorts events into (time, particle) order.  Every firing time lies
  /// in the epoch window [begin, end), so the bucket sort applies; its
  /// per-bucket comparison is Event's own operator<, making the result
  /// the exact lexicographic schedule.
  static void sortEvents(std::vector<Event>& events,
                         util::EventSortScratch<Event>& scratch,
                         double begin, double end) {
    util::sortEventsInWindow(events, scratch, begin, end,
                             [](const Event& e) { return e.time; });
  }

  /// Per-stripe outcome tally, merged on the coordinating thread in
  /// stripe order after the join.
  struct StripeTally {
    EngineStats stats;
    std::int64_t edgeDelta = 0;
  };

  /// RAII index restoration for one run (suspension itself is per-epoch,
  /// in runEpoch's pre-phase): restore must happen even when an epoch
  /// throws, and is idempotent.
  class IndexRestore {
   public:
    explicit IndexRestore(system::ParticleSystem& sys) : sys_(sys) {}
    ~IndexRestore() { sys_.restoreIndex(); }
    IndexRestore(const IndexRestore&) = delete;
    IndexRestore& operator=(const IndexRestore&) = delete;

   private:
    system::ParticleSystem& sys_;
  };

  /// RAII overlap quiescence for one run: if an epoch throws with a
  /// pre-draw in flight, the helper must finish before unwinding (it
  /// writes the clock bank).  The completed buffer stays pending — it is
  /// a valid continuation the next run consumes.  Normal exits never
  /// leave a pre-draw pending (the moreAfter prediction is exact).
  class OverlapDrain {
   public:
    explicit OverlapDrain(ShardedChainRunner& runner) noexcept
        : runner_(runner) {}
    ~OverlapDrain() {
      if (runner_.overlapPending_) {
        try {
          runner_.overlap_->wait();
        } catch (...) {
          runner_.overlapPending_ = false;  // fill died; buffer unusable
        }
      }
    }
    OverlapDrain(const OverlapDrain&) = delete;
    OverlapDrain& operator=(const OverlapDrain&) = delete;

   private:
    ShardedChainRunner& runner_;
  };

  [[nodiscard]] bool overlapEnabled() const noexcept {
    return options_.threads != 1;
  }

  /// One event of `particle`, drawing (aux coin, direction, uniform) from
  /// its private coin stream — materialized from the SoA bank for the
  /// duration of the event; outcomes tallied into `stats`/`edges` (a
  /// stripe-local tally in the parallel phase, the members on the sweep).
  void runEvent(std::uint32_t particle, EngineStats& stats,
                std::int64_t& edges) {
    ++stats.steps;
    rng::StreamBank::Use use = coin_.use(particle);
    rng::Random& rng = use.rng();
    bool auxMove = false;
    if constexpr (Model::kHasAuxMove) {
      auxMove = model_.auxEnabled() && rng.bernoulli(model_.auxProbability());
    }
    const int draw6 = static_cast<int>(rng.below(6));
    const EngineStepResult result = chainEventStep(
        system_, model_, partnerIds_, decisions_, greedy_,
        static_cast<std::size_t>(particle), draw6, auxMove, rng, edges);
    if (result.wasAux) {
      if (result.aux != AuxOutcome::Skipped) ++stats.auxProposed;
      if (result.aux == AuxOutcome::Accepted) ++stats.auxAccepted;
    } else {
      stats.movement.record(result.movement);
    }
  }

  /// Processes the stripe in buffer slot `slot` (covering the 64 columns
  /// at stripe index `stripeIndex`; the two coincide for flat windows):
  /// gathers its particles' pre-drawn firing times from the epoch buffer
  /// (filled in one batched pass — possibly by the overlap helper during
  /// the previous sweep), sorts once, executes interior events and routes
  /// halo/window-edge events to stripeDeferred_[slot].  Runs on a worker
  /// thread; touches only this stripe's words, its particles' coin
  /// streams, and its own tally.
  void runStripe(std::size_t slot, std::uint64_t stripeIndex,
                 std::int64_t originX, double epochEnd) {
    std::vector<Event>& deferred = stripeDeferred_[slot];
    deferred.clear();
    StripeTally& tally = stripeTally_[slot];
    tally = StripeTally{};

    std::vector<Event>& events = stripeEvents_[slot];
    events.clear();
    for (const std::uint32_t i : stripeParticles_[slot]) {
      const std::uint64_t end = draws_.offsets[i + 1];
      for (std::uint64_t k = draws_.offsets[i]; k < end; ++k) {
        events.push_back({draws_.times[k], i});
      }
    }
    sortEvents(events, sortScratch_[slot], now_, epochEnd);

    const system::BitGrid& grid = system_.grid();
    for (const Event& event : events) {
      const std::uint32_t i = event.particle;
      // Halo/window deferral, evaluated on the *current* position: once a
      // particle is in a band its position cannot change again this phase
      // (all its remaining events are deferred, and no other particle's
      // move can displace it), so the decision is stable.
      const TriPoint pos = system_.position(i);
      const auto col = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(pos.x) - originX);
      const std::uint64_t inStripe = col & (kStripeColumns - 1);
      // Pair-move models also require the partner-id plane to cover the
      // event's neighborhood (lookups and id moves reach distance ≤ 1).
      // Flat planes always do; a paged directory answers with a probe.
      // Both directories are immutable during the stripe phase, so the
      // predicate is the same for every thread count.
      bool idsCover = true;
      if constexpr (kMaintainsIds) idsCover = partnerIds_.coversNear(pos, 1);
      const bool safe =
          (col >> 6) == stripeIndex && inStripe >= kHaloColumns &&
          inStripe < kStripeColumns - kHaloColumns &&
          grid.coversInteriorBy(pos, system::BitGrid::kInteriorMargin + 1) &&
          idsCover;
      if (safe) {
        runEvent(i, tally.stats, tally.edgeDelta);
      } else {
        deferred.push_back(event);
      }
    }
  }

  /// One epoch [now_, now_ + Δ): batched draw (or overlap handoff),
  /// stripe phase, join, next-Δ decision + pre-draw submit, deferred
  /// sweep.  `moreAfter(eventsAfterThisEpoch, epochEnd)` predicts whether
  /// the burst continues — it gates the pre-draw, and it must be exact so
  /// bursts never end with a fill pending.
  template <typename MoreAfter>
  std::uint64_t runEpoch(MoreAfter&& moreAfter, std::uint64_t executedBefore) {
    const double epochEnd = now_ + epochLength_;

    // The epoch's full schedule of firing times, per particle ascending.
    // Either the helper pre-drew it during the previous sweep or it is
    // filled here — identical draws either way (fillEpoch is a pure
    // function of the clock bank's state).
    if (overlapPending_) {
      overlap_->wait();
      overlapPending_ = false;
      SOPS_DASSERT(pendingEnd_ == epochEnd);
      std::swap(draws_, pending_);
    } else {
      clock_.fillEpoch(epochEnd, draws_);
    }
    const std::uint64_t total = draws_.total();

    sweepQueue_.clear();
    std::uint64_t executed = 0;

    // Pre-phase plane sync on the coordinating thread: with the window
    // geometry fixed for the whole stripe phase (window-edge events are
    // deferred), no shadow-plane or id-plane rebuild can trigger inside
    // a worker.  The paged id plane allocates its directory here (or on
    // the sweep), never inside a stripe — events its coverage misses
    // are deferred by runStripe's predicate.  The id index is the one
    // structure every move shares; suspend it for the phase (idempotent
    // across epochs).
    model_.attach(system_);
    if constexpr (kMaintainsIds) partnerIds_.sync(system_);
    system_.suspendIndex();

    const system::BitGrid& grid = system_.grid();
    const std::int64_t originX = grid.originX();
    const bool tiledGrid = grid.tiled();

    activeStripes_.clear();
    if (tiledGrid) {
      // The allocated-tile bounding box can span astronomically many
      // 64-column stripes, so bucket sparsely: stripe index → buffer
      // slot, slots assigned in first-touch order by this sequential
      // pass — the same assignment for every thread count.  Tile
      // columns are 64-aligned (kTileWidth is a multiple of 64) and
      // originX is tile-aligned, so stripe boundaries still never
      // split a word of any plane.
      stripeSlots_.clear();
      stripeIndexOfSlot_.clear();
      for (std::size_t i = 0; i < system_.size(); ++i) {
        if (draws_.count(i) == 0) continue;
        const auto col = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(system_.position(i).x) - originX);
        const std::uint64_t stripeIndex = col >> 6;
        std::size_t slot;
        if (const std::uint32_t* found = stripeSlots_.find(stripeIndex)) {
          slot = *found;
        } else {
          slot = stripeIndexOfSlot_.size();
          stripeSlots_.insert(stripeIndex,
                              static_cast<std::uint32_t>(slot));
          stripeIndexOfSlot_.push_back(stripeIndex);
          if (stripeParticles_.size() <= slot) {
            stripeParticles_.resize(slot + 1);
            stripeEvents_.resize(slot + 1);
            stripeDeferred_.resize(slot + 1);
            stripeTally_.resize(slot + 1);
            sortScratch_.resize(slot + 1);
          }
          stripeParticles_[slot].clear();
        }
        stripeParticles_[slot].push_back(static_cast<std::uint32_t>(i));
      }
      for (std::size_t slot = 0; slot < stripeIndexOfSlot_.size(); ++slot) {
        activeStripes_.push_back(slot);
      }
      // Canonical merge order: ascending stripe index, matching the
      // flat path (any fixed order would do — stripes are disjoint in
      // particles, so the merged schedule is order-independent).
      std::sort(activeStripes_.begin(), activeStripes_.end(),
                [&](std::size_t a, std::size_t b) {
                  return stripeIndexOfSlot_[a] < stripeIndexOfSlot_[b];
                });
    } else {
      // Flat windows keep the dense stripe arrays: stripe count is
      // bounded by width / 64, and slot == stripe index.
      const auto stripeCount = static_cast<std::size_t>(
          (grid.width() + kStripeColumns - 1) / kStripeColumns);
      if (stripeParticles_.size() < stripeCount) {
        stripeParticles_.resize(stripeCount);
        stripeEvents_.resize(stripeCount);
        stripeDeferred_.resize(stripeCount);
        stripeTally_.resize(stripeCount);
        sortScratch_.resize(stripeCount);
      }
      for (auto& list : stripeParticles_) list.clear();

      for (std::size_t i = 0; i < system_.size(); ++i) {
        if (draws_.count(i) == 0) continue;
        const auto col = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(system_.position(i).x) - originX);
        stripeParticles_[col >> 6].push_back(static_cast<std::uint32_t>(i));
      }

      for (std::size_t s = 0; s < stripeCount; ++s) {
        if (!stripeParticles_[s].empty()) activeStripes_.push_back(s);
      }
    }
    core::parallelForIndex(
        activeStripes_.size(), options_.threads, [&](std::size_t k) {
          const std::size_t slot = activeStripes_[k];
          const std::uint64_t stripeIndex =
              tiledGrid ? stripeIndexOfSlot_[slot] : slot;
          runStripe(slot, stripeIndex, originX, epochEnd);
        });
    // Merge in stripe order (fixed regardless of which thread ran
    // what): totals are sums, so any fixed order gives the same state.
    // The sweep schedule is assembled by concatenating every stripe's
    // deferred list and re-sorting once with the epoch bucket sort —
    // NOT by a per-stripe std::merge cascade, which re-copies the
    // growing queue once per stripe and goes quadratic on wide tiled
    // windows (a 3e5-particle line spans ~4700 active stripes; the
    // cascade was >70 % of its epoch time).  (time, particle) keys are
    // unique, so the sorted schedule is byte-identical to the cascade's.
    for (const std::size_t s : activeStripes_) {
      executed += stripeTally_[s].stats.steps;
      edges_ += stripeTally_[s].edgeDelta;
      stats_.merge(stripeTally_[s].stats);
      const std::vector<Event>& deferred = stripeDeferred_[s];
      sweepQueue_.insert(sweepQueue_.end(), deferred.begin(), deferred.end());
    }
    if (!sweepQueue_.empty()) {
      sortEvents(sweepQueue_, sweepScratch_, now_, epochEnd);
    }

    // Decide the next epoch's length BEFORE the sweep — the overlap
    // helper needs the next window's end now.  The deferred fraction is a
    // pure function of the seeded trajectory (stripe geometry + event
    // positions), so every thread count computes the same schedule.
    if (adaptive_) {
      epochTarget_ = controller_.update(sweepQueue_.size(), total);
    }
    const double nextLength =
        static_cast<double>(epochTarget_) / clock_.totalRate();
    const double nextEnd = epochEnd + nextLength;
    if (overlapEnabled() && !isCancelled(cancel_) &&
        moreAfter(executedBefore + total, epochEnd)) {
      if (!overlap_) overlap_ = std::make_unique<OverlapWorker>();
      overlapPending_ = true;
      pendingEnd_ = nextEnd;
      overlap_->submit(
          [this, nextEnd] { clock_.fillEpoch(nextEnd, pending_); });
    }

    // Sequential sweep: all deferred events by *original timestamps* in
    // (time, particle) order — a sequential tail of the epoch's schedule;
    // window regrows and plane resyncs are safe here (chainEventStep
    // resyncs the id plane after any move that regrew the window).  The
    // overlap helper only touches the clock bank and its own buffer, never
    // the system or the coin bank, so it runs concurrently with this loop.
    for (const Event& event : sweepQueue_) {
      runEvent(event.particle, stats_, edges_);
    }
    executed += sweepQueue_.size();
    sweepEventCount_ += sweepQueue_.size();

    now_ = epochEnd;
    epochLength_ = nextLength;
    return executed;
  }

  system::ParticleSystem system_;
  Model model_;
  ShardedChainOptions options_;
  EngineStats stats_;
  std::int64_t edges_ = 0;
  bool greedy_ = false;
  bool adaptive_ = true;
  double epochLength_ = 1.0;
  double now_ = 0.0;
  std::uint64_t epochTarget_ = 0;
  std::uint64_t sweepEventCount_ = 0;
  AdaptiveEpochController controller_;
  /// cell → id mirror for models that declare kNeedsPartnerIds; empty and
  /// untouched otherwise (same contract as the engine's).
  ParticleIdPlane partnerIds_;
  std::array<MoveDecision, 256> decisions_{};
  const CancelToken* cancel_ = nullptr;

  rng::PoissonClockBank clock_;  ///< SoA waiting-time streams + rates
  rng::StreamBank coin_;         ///< SoA per-event draw streams

  /// Epoch draw buffers: draws_ is the epoch being executed, pending_ the
  /// overlap helper's output for the next one.
  rng::PoissonClockBank::EpochDraws draws_;
  rng::PoissonClockBank::EpochDraws pending_;
  bool overlapPending_ = false;
  double pendingEnd_ = 0.0;
  std::unique_ptr<OverlapWorker> overlap_;

  /// Reused per-epoch buffers.  Indexed by buffer *slot*: equal to the
  /// stripe index over a flat window, assigned first-touch over a tiled
  /// one (stripeSlots_/stripeIndexOfSlot_ hold the mapping).
  std::vector<std::vector<std::uint32_t>> stripeParticles_;
  std::vector<std::vector<Event>> stripeEvents_;
  std::vector<std::vector<Event>> stripeDeferred_;
  std::vector<StripeTally> stripeTally_;
  std::vector<util::EventSortScratch<Event>> sortScratch_;
  util::EventSortScratch<Event> sweepScratch_;
  std::vector<std::size_t> activeStripes_;  ///< slots, in merge order
  util::FlatMap64<std::uint32_t> stripeSlots_;  ///< tiled: stripe idx → slot
  std::vector<std::uint64_t> stripeIndexOfSlot_;
  std::vector<Event> sweepQueue_;
};

}  // namespace sops::core

#endif  // SOPS_CORE_SHARDED_CHAIN_RUNNER_HPP
