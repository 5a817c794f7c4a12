// Performance guardrails (google-benchmark): the chain step is O(1) and the
// simulator sustains millions of iterations per second — the property that
// makes the paper's 5M/20M-iteration experiments (Figs 2, 10) cheap.
//
// The *Reference benchmarks preserve the pre-bitboard kernel (hash-probe
// occupancy + per-proposal property recomputation) so the speedup of the
// optimized hot path (bitboard occupancy + precomputed move/decision
// tables) stays measurable from a single binary; DESIGN.md records the
// before/after numbers, BENCH_perf.json the raw run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "amoebot/scheduler.hpp"
#include "core/compression_chain.hpp"
#include "core/move_table.hpp"
#include "core/properties.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "oracles/reference_kernel.hpp"
#include "oracles/reference_local_kernel.hpp"
#include "oracles/separation_chain.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "util/flat_hash.hpp"

namespace {

using namespace sops;

// ---------------------------------------------------------------------------
// Hot path: optimized vs reference.  The reference side is
// core::ReferenceKernel / evaluateMoveSeed / ringMaskSeed from
// oracles/reference_kernel.hpp — the same frozen seed kernel the
// golden-trajectory tests certify as draw-for-draw identical, so the
// measured baseline is exactly the certified one.

void BM_ChainStep(benchmark::State& state) {
  // The paper's chain M as it runs everywhere: core::CompressionEngine
  // (BiasedChainEngine<CompressionModel>).
  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine chain(system::lineConfiguration(state.range(0)),
                                core::CompressionModel(options), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainStep)->Arg(25)->Arg(100)->Arg(400);

void BM_ChainStepReference(benchmark::State& state) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ReferenceKernel chain(system::lineConfiguration(state.range(0)),
                              options, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainStepReference)->Arg(25)->Arg(100)->Arg(400);

// Increment-with-wrap proposal cycling (no runtime division) so the
// optimized and reference kernels are measured over the identical,
// overhead-free proposal stream.
struct ProposalCycle {
  std::size_t particle = 0;
  std::size_t direction = 0;

  void advance(std::size_t particleCount) {
    if (++particle == particleCount) particle = 0;
    if (++direction == 6) direction = 0;
  }
};

void BM_EvaluateMove(benchmark::State& state) {
  // Line start (the paper's canonical initial configuration): most targets
  // are unoccupied, so the full ring-mask + classification path runs.
  const system::ParticleSystem sys = system::lineConfiguration(100);
  ProposalCycle cycle;
  for (auto _ : state) {
    const core::MoveEvaluation eval =
        core::evaluateMove(sys, sys.position(cycle.particle),
                           lattice::kAllDirections[cycle.direction]);
    benchmark::DoNotOptimize(eval);
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvaluateMove);

void BM_EvaluateMoveReference(benchmark::State& state) {
  const system::ParticleSystem sys = system::lineConfiguration(100);
  const core::SeedOccupancy occupied(sys);
  ProposalCycle cycle;
  for (auto _ : state) {
    const core::MoveEvaluation eval =
        core::evaluateMoveSeed(occupied, sys.position(cycle.particle),
                               lattice::kAllDirections[cycle.direction]);
    benchmark::DoNotOptimize(eval);
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvaluateMoveReference);

void BM_RingMaskBitboard(benchmark::State& state) {
  const system::ParticleSystem sys = system::spiralConfiguration(100);
  ProposalCycle cycle;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ringMask(sys, sys.position(cycle.particle),
                       lattice::kAllDirections[cycle.direction]));
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingMaskBitboard);

void BM_RingMaskHash(benchmark::State& state) {
  const system::ParticleSystem sys = system::spiralConfiguration(100);
  const core::SeedOccupancy occupied(sys);
  ProposalCycle cycle;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ringMaskSeed(
        sys.position(cycle.particle), lattice::kAllDirections[cycle.direction],
        occupied));
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingMaskHash);

void BM_PropertyChecks(benchmark::State& state) {
  std::uint8_t mask = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::property1Holds(mask));
    benchmark::DoNotOptimize(core::property2Holds(mask));
    ++mask;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropertyChecks);

void BM_MoveTableLookup(benchmark::State& state) {
  std::uint8_t mask = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::moveTableEntry(mask));
    ++mask;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MoveTableLookup);

void BM_PerimeterClosedForm(benchmark::State& state) {
  const system::ParticleSystem sys =
      system::spiralConfiguration(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::perimeter(sys));
  }
}
BENCHMARK(BM_PerimeterClosedForm)->Arg(100)->Arg(1000)->Arg(100000);

// The metrics walk behind every sample, at n = 10^5 on both occupancy
// backends: Arg 0 is the spiral (flat window), Arg 1 the line (its
// proportional margins exceed the flat cap, so it is tiled).
system::ParticleSystem metricsShape(std::int64_t shape) {
  return shape == 0 ? system::spiralConfiguration(100000)
                    : system::lineConfiguration(100000);
}

void BM_IsConnected(benchmark::State& state) {
  const system::ParticleSystem sys = metricsShape(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::isConnected(sys));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.size()));
}
BENCHMARK(BM_IsConnected)->Arg(0)->Arg(1);

void BM_CountHoles(benchmark::State& state) {
  const system::ParticleSystem sys = metricsShape(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::countHoles(sys));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.size()));
}
BENCHMARK(BM_CountHoles)->Arg(0)->Arg(1);

void BM_FlatMapLookup(benchmark::State& state) {
  util::FlatMap64<std::int32_t> map(1024);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.insert(k * 0x9e3779b97f4a7c15ULL, static_cast<std::int32_t>(k));
  }
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(probe * 0x9e3779b97f4a7c15ULL));
    probe = (probe + 1) % 2000;  // half hits, half misses
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapLookup);

void BM_SppsReplicas(benchmark::State& state) {
  // One compression RunSpec with four replicas through sim::run's replica
  // fan-out (core::parallelForIndex); Arg is threads.  Items are chain
  // steps, so items/s is directly comparable with BM_ChainStep.
  sim::RunSpec spec = sim::RunSpec::parse(
      "scenario=compression shape=line n=50 steps=50000 replicas=4 seed=1");
  spec.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run(spec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * spec.replicas * spec.steps));
}
BENCHMARK(BM_SppsReplicas)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_AmoebotActivation(benchmark::State& state) {
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::lineConfiguration(100), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::PoissonScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo.activate(sys, scheduler.next().particle, coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AmoebotActivation);

void BM_AmoebotActivationReference(benchmark::State& state) {
  // The frozen seed amoebot kernel (hash-probe substrate, per-activation
  // property recomputation) under the identical activation stream — the
  // before side of the local fast path, certified draw-for-draw identical
  // by tests/local_golden_test.cpp.
  rng::Random rng(7);
  amoebot::reference::ReferenceAmoebotSystem sys(system::lineConfiguration(100),
                                                 rng);
  const amoebot::reference::ReferenceLocalKernel algo({4.0});
  amoebot::PoissonScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo.activate(sys, scheduler.next().particle, coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AmoebotActivationReference);

void BM_LocalActivate(benchmark::State& state) {
  // Sequential uniform activations (negligible scheduler overhead) so the
  // per-activation cost of Algorithm A itself is what is measured.
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::lineConfiguration(state.range(0)), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::SequentialScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.activate(sys, scheduler.next(), coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalActivate)->Arg(100)->Arg(10000);

void BM_LocalActivateReference(benchmark::State& state) {
  rng::Random rng(7);
  amoebot::reference::ReferenceAmoebotSystem sys(
      system::lineConfiguration(state.range(0)), rng);
  const amoebot::reference::ReferenceLocalKernel algo({4.0});
  amoebot::SequentialScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.activate(sys, scheduler.next(), coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalActivateReference)->Arg(100)->Arg(10000);

void BM_ShardedActivations(benchmark::State& state) {
  // Million-particle Algorithm A through the sharded concurrent runner;
  // Arg is the stripe-phase thread count.  Items are activations, so
  // items/s is comparable with BM_LocalActivate.  (This repo's CI box is
  // single-core — run on a multi-core host to see the stripe scaling.)
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::spiralConfiguration(1000000), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::ShardedOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  amoebot::ShardedPoissonRunner runner(sys, algo, 11, options);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(4000000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedActivations)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// Weight-model engine: the three scenarios on the shared bitboard hot loop.
// BM_SeparationStepReference is the pre-engine sparse-path SeparationChain
// (hash-probe color counts, per-step std::pow) — the before side of the
// ISSUE 3 ≥3× target; BM_SeparationEngineStep is the after side (color bit
// planes + precomputed power tables).  Items are chain steps everywhere.

void BM_SeparationStepReference(benchmark::State& state) {
  extensions::SeparationOptions options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  const auto n = static_cast<std::size_t>(state.range(0));
  extensions::SeparationChain chain(system::spiralConfiguration(state.range(0)),
                                    system::alternatingClasses(n, 2), options,
                                        42);
  // Equal warmup on both sides so the measured state mix (occupied targets,
  // heterochromatic edges) is the equilibrating blob, not the cold start.
  chain.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    chain.step();
  }
  benchmark::DoNotOptimize(chain.stats().movesAccepted);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeparationStepReference)->Arg(100)->Arg(400)->Arg(100000);

void BM_SeparationEngineStep(benchmark::State& state) {
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  const auto n = static_cast<std::size_t>(state.range(0));
  core::SeparationEngine engine(
      system::spiralConfiguration(state.range(0)),
      core::SeparationModel(options, system::alternatingClasses(n, 2)), 42);
  engine.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeparationEngineStep)->Arg(100)->Arg(400)->Arg(100000);

void BM_CompressionEngineStepSpiral(benchmark::State& state) {
  // The sequential single-replica baseline BM_ShardedChainStepCompression
  // is compared against.  Spiral, not line: a 1e5 line's proportional
  // margins exceed the flat-window cap, so it runs on the tiled backend —
  // the spiral stays on the flat window like the separation/alignment
  // n=1e5 baselines above, keeping this row comparable with the history.
  // (BM_ShardedChainStepSeparationTiledLine is the tiled-backend row.)
  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine engine(system::spiralConfiguration(state.range(0)),
                                 core::CompressionModel(options), 42);
  engine.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompressionEngineStepSpiral)->Arg(100000);

void BM_AlignmentEngineStep(benchmark::State& state) {
  core::AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 4.0;
  const auto n = static_cast<std::size_t>(state.range(0));
  core::AlignmentEngine engine(
      system::spiralConfiguration(state.range(0)),
      core::AlignmentModel(options, system::alternatingClasses(n, 6)), 42);
  engine.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AlignmentEngineStep)->Arg(100)->Arg(400)->Arg(100000);

// ---------------------------------------------------------------------------
// Sharded chain runner: the multi-core Poissonized execution of the same
// weight models (core/sharded_chain_runner.hpp).  Arg is the stripe-phase
// thread count; items are chain events, so items/s is comparable with the
// BM_*EngineStep(Spiral) single-core baselines at n = 1e5.  All three run
// the spiral their sequential baselines use — it stays inside the flat
// window (~8 active stripes at this n), keeping the rows comparable with
// the pre-tiled history; the *TiledLine rows below measure the tiled
// backend on the shapes that used to fall off the dense path.  (This
// repo's CI box is single-core — run on a multi-core host to see the
// stripe scaling; the Arg(8) rows are recorded for exactly that
// comparison.)

void BM_ShardedChainStepCompression(benchmark::State& state) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::CompressionModel> runner(
      system::spiralConfiguration(100000), core::CompressionModel(options), 42,
      sharded);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepCompression)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

void BM_ShardedChainStepSeparation(benchmark::State& state) {
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::SeparationModel> runner(
      system::spiralConfiguration(100000),
      core::SeparationModel(options, system::alternatingClasses(100000, 2)),
      42, sharded);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepSeparation)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

void BM_ShardedChainStepAlignment(benchmark::State& state) {
  core::AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::AlignmentModel> runner(
      system::spiralConfiguration(100000),
      core::AlignmentModel(options, system::alternatingClasses(100000, 6)),
      42, sharded);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepAlignment)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

void BM_ShardedChainStepSeparationTiledLine(benchmark::State& state) {
  // The previously-cliffed shape: a 3e5-particle line's derived window is
  // ~1e9 words — far past the 32 MiB flat cap — so before the tiled
  // backend this configuration fell onto the hash-only path and ran
  // every event on the sequential sweep (BENCH_perf.json keeps that
  // row's history).  Now it runs dense-tiled and striped with the paged
  // id plane.  Arg is the stripe-phase thread count.
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::SeparationModel> runner(
      system::lineConfiguration(300000),
      core::SeparationModel(options, system::alternatingClasses(300000, 2)),
      42, sharded);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepSeparationTiledLine)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

void BM_SchedulerNext(benchmark::State& state) {
  amoebot::PoissonScheduler scheduler(
      static_cast<std::size_t>(state.range(0)), rng::Random(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.next());
  }
}
BENCHMARK(BM_SchedulerNext)->Arg(100)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
