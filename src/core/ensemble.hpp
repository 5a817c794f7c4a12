#ifndef SOPS_CORE_ENSEMBLE_HPP
#define SOPS_CORE_ENSEMBLE_HPP

/// \file ensemble.hpp
/// The one thread-pool fan-out of the library: parallelForIndex.
///
/// sim::run fans a RunSpec's replicas out across it (replicas share
/// nothing; their events replay in replica order, so results do not
/// depend on the thread count), and core::StripeEpochExecutor runs the
/// sharded runners' stripes on it.  A parameter grid is one RunSpec with
/// replicas= and seed-stride= per grid point.

#include <cstddef>
#include <functional>

#include "core/cancel.hpp"

namespace sops::core {

/// Runs fn(i) for every i in [0, count) across `threads` workers stealing
/// indices from an atomic counter (threads == 0 uses
/// hardware_concurrency; a single worker, or count <= 1, runs inline on
/// the caller's thread).  The first exception thrown by any fn cancels
/// the indices not yet claimed and is rethrown on the caller after all
/// workers join.  fn must make concurrent invocations on distinct indices
/// safe.
void parallelForIndex(std::size_t count, unsigned threads,
                      const std::function<void(std::size_t)>& fn);

/// parallelForIndex with cooperative cancellation: each worker polls the
/// token before claiming an index, so a tripped token skips every index
/// not yet started (indices already running finish normally — fn is never
/// interrupted mid-flight).  The caller cannot tell skipped indices from
/// the claim order alone; track completion inside fn.  nullptr behaves
/// exactly like the overload above.
void parallelForIndex(std::size_t count, unsigned threads,
                      const CancelToken* cancel,
                      const std::function<void(std::size_t)>& fn);

}  // namespace sops::core

#endif  // SOPS_CORE_ENSEMBLE_HPP
