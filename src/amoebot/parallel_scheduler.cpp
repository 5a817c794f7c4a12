#include "amoebot/parallel_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "core/ensemble.hpp"
#include "util/flat_hash.hpp"

namespace sops::amoebot {

namespace {

/// Width of the halo band on each side of a stripe, in columns.  An
/// activation reads within lattice distance 2 of the tail and |Δx| never
/// exceeds the lattice distance, so a tail at in-stripe column [2, 61]
/// keeps every read and write inside its own 64-column stripe.
constexpr std::uint64_t kHaloColumns = 2;
constexpr std::uint64_t kStripeColumns = 64;

/// RAII id-index suspension for one run: restore must happen even when an
/// epoch throws (ContractViolation, bad_alloc), or the system would be
/// left with at()/expandedCount() permanently invalid.
class IdIndexSuspension {
 public:
  explicit IdIndexSuspension(AmoebotSystem& sys) : sys_(sys) {
    sys_.suspendIdIndex();
  }
  ~IdIndexSuspension() { sys_.restoreIdIndex(); }
  IdIndexSuspension(const IdIndexSuspension&) = delete;
  IdIndexSuspension& operator=(const IdIndexSuspension&) = delete;

 private:
  AmoebotSystem& sys_;
};

}  // namespace

ShardedPoissonRunner::ShardedPoissonRunner(
    AmoebotSystem& sys, const LocalCompressionAlgorithm& algo,
    std::uint64_t seed, ShardedOptions options)
    : sys_(sys), algo_(algo), options_(std::move(options)),
      controller_(sys.size()) {
  const std::size_t n = sys_.size();
  SOPS_REQUIRE(n > 0, "sharded runner needs particles");
  SOPS_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
               "sharded runner: particle ids are 32-bit");
  SOPS_REQUIRE(options_.targetEventsPerEpoch <= core::kMaxEventsPerEpoch,
               "targetEventsPerEpoch must be at most 2^28");
  SOPS_REQUIRE(options_.rates.empty() || options_.rates.size() == n,
               "one rate per particle");
  adaptive_ = options_.targetEventsPerEpoch == 0 && options_.adaptiveEpochs;
  epochTarget_ = options_.targetEventsPerEpoch != 0
                     ? options_.targetEventsPerEpoch
                     : core::derivedEpochTarget(n);

  // SoA stream banks, seeded once per particle (rng::particleStream
  // documents why mix64 seeding beats Random::fork() here; the sharded
  // chain runner shares the discipline).  The clock bank also draws each
  // particle's first waiting time, exactly as the AoS constructor did.
  clock_ = rng::PoissonClockBank(seed, n, 1, options_.rates);
  coin_ = rng::StreamBank(seed, n, 2);
  epochLength_ = static_cast<double>(epochTarget_) / clock_.totalRate();
}

void ShardedPoissonRunner::sortEvents(std::vector<Event>& events,
                                      util::EventSortScratch<Event>& scratch,
                                      double begin, double end) {
  util::sortEventsInWindow(events, scratch, begin, end,
                           [](const Event& e) { return e.time; });
}

void ShardedPoissonRunner::runStripe(std::size_t slot,
                                     std::uint64_t stripeIndex,
                                     std::int64_t originX, double epochEnd) {
  std::vector<Event>& deferred = stripeDeferred_[slot];
  deferred.clear();
  std::uint64_t executed = 0;

  // Event times are independent of system state, so the whole epoch's
  // schedule was drawn up front in one batched pass (fillEpoch); the
  // stripe just gathers its particles' slices and sorts once.
  std::vector<Event>& events = stripeEvents_[slot];
  events.clear();
  for (const std::uint32_t i : stripeParticles_[slot]) {
    const std::uint64_t end = draws_.offsets[i + 1];
    for (std::uint64_t k = draws_.offsets[i]; k < end; ++k) {
      events.push_back({draws_.times[k], i});
    }
  }
  sortEvents(events, sortScratch_[slot], now_, epochEnd);

  for (const Event& event : events) {
    const std::uint32_t i = event.particle;
    // Halo/window deferral, evaluated on the *current* tail: once a
    // particle is in a band its position cannot change again this phase
    // (its activations are all deferred), so the decision is stable.
    const TriPoint tail = sys_.particle(i).tail;
    const auto col =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(tail.x) - originX);
    const std::uint64_t inStripe = col & (kStripeColumns - 1);
    const bool safe = (col >> 6) == stripeIndex && inStripe >= kHaloColumns &&
                      inStripe < kStripeColumns - kHaloColumns &&
                      sys_.shardSafe(tail);
    if (safe) {
      rng::StreamBank::Use use = coin_.use(i);
      algo_.activate(sys_, i, use.rng());
      ++executed;
    } else {
      deferred.push_back(event);
    }
  }
  stripeActivations_[slot] = executed;
}

std::uint64_t ShardedPoissonRunner::runEpoch() {
  const double epochEnd = now_ + epochLength_;
  // Batched draw: every clock's firings in [now, epochEnd), per particle
  // ascending, in one tight sequential pass over the SoA bank.
  clock_.fillEpoch(epochEnd, draws_);
  const std::uint64_t total = draws_.total();

  sweepEvents_.clear();
  std::uint64_t executed = 0;

  const system::BitGrid& grid = sys_.occupancyGrid();
  const bool tiledGrid = grid.tiled();
  const std::int64_t originX = grid.originX();

  activeStripes_.clear();
  if (tiledGrid) {
    // The allocated-tile bounding box can span astronomically many
    // 64-column stripes, so bucket sparsely: stripe index → buffer
    // slot, slots assigned in first-touch order by this sequential
    // pass — the same assignment for every thread count.
    stripeSlots_.clear();
    stripeIndexOfSlot_.clear();
    for (std::size_t i = 0; i < sys_.size(); ++i) {
      if (draws_.count(i) == 0) continue;
      const auto col = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(sys_.particle(i).tail.x) - originX);
      const std::uint64_t stripeIndex = col >> 6;
      std::size_t slot;
      if (const std::uint32_t* found = stripeSlots_.find(stripeIndex)) {
        slot = *found;
      } else {
        slot = stripeIndexOfSlot_.size();
        stripeSlots_.insert(stripeIndex, static_cast<std::uint32_t>(slot));
        stripeIndexOfSlot_.push_back(stripeIndex);
        if (stripeParticles_.size() <= slot) {
          stripeParticles_.resize(slot + 1);
          stripeEvents_.resize(slot + 1);
          stripeDeferred_.resize(slot + 1);
          stripeActivations_.resize(slot + 1);
          sortScratch_.resize(slot + 1);
        }
        stripeParticles_[slot].clear();
      }
      stripeParticles_[slot].push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t slot = 0; slot < stripeIndexOfSlot_.size(); ++slot) {
      activeStripes_.push_back(slot);
    }
    // Canonical merge order: ascending stripe index, matching the flat
    // path (any fixed order would do — stripes are disjoint in
    // particles, so the merged schedule is order-independent).
    std::sort(activeStripes_.begin(), activeStripes_.end(),
              [&](std::size_t a, std::size_t b) {
                return stripeIndexOfSlot_[a] < stripeIndexOfSlot_[b];
              });
  } else {
    // Flat windows keep the dense stripe arrays: stripe count is
    // bounded by width / 64, and slot == stripe index.
    const std::size_t stripeCount =
        static_cast<std::size_t>((grid.width() + kStripeColumns - 1) /
                                 kStripeColumns);
    if (stripeParticles_.size() < stripeCount) {
      stripeParticles_.resize(stripeCount);
      stripeEvents_.resize(stripeCount);
      stripeDeferred_.resize(stripeCount);
      stripeActivations_.resize(stripeCount);
      sortScratch_.resize(stripeCount);
    }
    for (auto& list : stripeParticles_) list.clear();

    for (std::size_t i = 0; i < sys_.size(); ++i) {
      if (draws_.count(i) == 0) continue;
      const auto col = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(sys_.particle(i).tail.x) - originX);
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
  // Merge in stripe order (fixed regardless of which thread ran what).
  // The sweep schedule is every stripe's deferred list concatenated and
  // re-sorted once with the epoch bucket sort — not a per-stripe
  // std::merge cascade, which re-copies the growing queue once per
  // stripe and goes quadratic on wide tiled windows (thousands of
  // active stripes).  (time, particle) keys are unique, so the sorted
  // schedule is byte-identical to the cascade's.
  for (const std::size_t s : activeStripes_) {
    executed += stripeActivations_[s];
    const std::vector<Event>& deferred = stripeDeferred_[s];
    sweepEvents_.insert(sweepEvents_.end(), deferred.begin(), deferred.end());
  }
  if (!sweepEvents_.empty()) {
    sortEvents(sweepEvents_, sweepScratch_, now_, epochEnd);
  }

  // Adapt the next epoch's target from the deferred fraction — a pure
  // function of the seeded trajectory, so every thread count computes the
  // same schedule.
  if (adaptive_) {
    epochTarget_ = controller_.update(sweepEvents_.size(), total);
    epochLength_ = static_cast<double>(epochTarget_) / clock_.totalRate();
  }

  // Single-threaded sweep: all deferred events in (time, particle) order —
  // a legal sequential tail of the epoch's schedule; window regrows are
  // safe here.
  for (const Event& event : sweepEvents_) {
    rng::StreamBank::Use use = coin_.use(event.particle);
    algo_.activate(sys_, event.particle, use.rng());
  }
  executed += sweepEvents_.size();
  sweepActivations_ += sweepEvents_.size();

  now_ = epochEnd;
  totalActivations_ += executed;
  return executed;
}

std::uint64_t ShardedPoissonRunner::runAtLeast(std::uint64_t minActivations) {
  const IdIndexSuspension suspension(sys_);
  std::uint64_t executed = 0;
  while (executed < minActivations) {
    if (core::isCancelled(cancel_)) break;
    executed += runEpoch();
  }
  return executed;
}

std::uint64_t ShardedPoissonRunner::runFor(double duration) {
  const IdIndexSuspension suspension(sys_);
  const double target = now_ + duration;
  std::uint64_t executed = 0;
  while (now_ < target) {
    if (core::isCancelled(cancel_)) break;
    executed += runEpoch();
  }
  return executed;
}

void ShardedPoissonRunner::saveState(system::SnapshotWriter& w) const {
  w.f64(now_);
  w.u64(totalActivations_);
  w.u64(sweepActivations_);
  w.u64(epochTarget_);
  w.u64(clock_.size());
  for (std::size_t i = 0; i < clock_.size(); ++i) {
    w.f64(clock_.nextTime(i));
    system::writeEngineState(w, clock_.state(i));
    system::writeEngineState(w, coin_.state(i));
  }
}

void ShardedPoissonRunner::restoreState(system::SnapshotReader& r) {
  now_ = r.f64();
  totalActivations_ = r.u64();
  sweepActivations_ = r.u64();
  const std::uint64_t target = r.u64();
  if (adaptive_) {
    controller_.setTarget(target);
    epochTarget_ = target;
  } else {
    SOPS_REQUIRE(target == epochTarget_,
                 "snapshot: fixed epoch target does not match the runner's "
                 "options");
  }
  epochLength_ = static_cast<double>(epochTarget_) / clock_.totalRate();
  const std::uint64_t n = r.u64();
  SOPS_REQUIRE(n == sys_.size(),
               "snapshot: per-particle stream count does not match the "
               "particle count");
  for (std::uint64_t i = 0; i < n; ++i) {
    clock_.setNextTime(i, r.f64());
    clock_.setState(i, system::readEngineState(r));
    coin_.setState(i, system::readEngineState(r));
  }
}

}  // namespace sops::amoebot
