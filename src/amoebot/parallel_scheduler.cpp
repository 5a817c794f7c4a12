#include "amoebot/parallel_scheduler.hpp"

namespace sops::amoebot {

ShardedPoissonRunner::ShardedPoissonRunner(
    AmoebotSystem& sys, const LocalCompressionAlgorithm& algo,
    std::uint64_t seed, ShardedOptions options)
    : sys_(sys), algo_(algo), executor_(seed, sys.size(), options) {}

std::uint64_t ShardedPoissonRunner::runAtLeast(std::uint64_t minActivations) {
  return executor_.runAtLeast(*this, minActivations);
}

void ShardedPoissonRunner::saveState(system::SnapshotWriter& w) const {
  w.f64(executor_.now());
  w.u64(totalActivations_);
  executor_.saveState(w);
}

void ShardedPoissonRunner::restoreState(system::SnapshotReader& r) {
  core::requireStripeEpochFrame(r);
  const double now = r.f64();
  const std::uint64_t activations = r.u64();
  const auto schedule = executor_.readState(r, now, sys_.size());
  totalActivations_ = activations;
  executor_.restoreState(schedule);
}

}  // namespace sops::amoebot
