/// \file scenarios.cpp
/// The four built-in scenarios behind sim::Registry.
///
/// Each chain scenario constructs its core::BiasedChainEngine exactly as
/// the direct call sites do — same initial system, same model options,
/// same seed, and advance() is engine.runAtLeast(), draw-for-draw
/// engine.run() — so a facade run is identical to the direct code path
/// (pinned by tests/sim_api_test.cpp against direct engine runs).  One
/// adapter, ChainRun<Driver>, wraps the engine and the sharded runner
/// alike.  The amoebot scenario drives Algorithm A through the sharded
/// Poisson runner, whose trajectory is a pure function of the seed for
/// every thread count.
///
/// Thread budget (the workerThreads argument of Scenario::start): chain
/// scenarios run the sequential engine at threads ≤ 1 — preserving the
/// historical draw-for-draw trajectory, and the shape multi-replica runs
/// always use — and switch to core::ShardedChainRunner at threads > 1,
/// the multi-core Poissonized execution whose trajectory is a pure
/// function of the seed (identical for every thread count > 1, but *not*
/// draw-for-draw the sequential engine's; distributionally validated in
/// tests/sharded_chain_test.cpp).  The amoebot scenario, whose runner is
/// sharded either way, spends the whole budget (0 = all cores).
///
/// Adding a workload = one weight model (core/scenario_models.hpp style)
/// plus one Scenario subclass here, registered in registerBuiltins().

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/faults.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "sim/registry.hpp"
#include "sim/run_spec.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "util/assert.hpp"

namespace sops::sim {
namespace {

/// α = p / p_min(n) (Definition 2.2) from a perimeter already computed.
[[nodiscard]] double alphaOf(std::int64_t perimeter, std::size_t n) {
  return static_cast<double>(perimeter) /
         static_cast<double>(system::pMin(static_cast<std::int64_t>(n)));
}

/// Shared movement-chain knobs (the paper's ChainOptions, including the
/// ablation switches bench_ablation exercises).
void addChainKeys(ParamSchema& schema) {
  schema.add("lambda", ParamType::Double, "4.0",
             "compression bias on edges");
  schema.add("greedy", ParamType::Bool, "false",
             "zero-temperature filter (accept iff e' >= e)");
  schema.add("gap", ParamType::Bool, "true", "enforce condition (1), e != 5");
  schema.add("properties", ParamType::Bool, "true",
             "enforce condition (2), Property 1 or 2");
  schema.add("property2", ParamType::Bool, "true",
             "allow Property 2 moves (Fig 3 ablation)");
}

/// The sharded-runner epoch knob every chain scenario shares (consulted
/// only when threads > 1 routes the run through the sharded engine —
/// the amoebot scenario has the same key).
void addShardedKeys(ParamSchema& schema) {
  schema.add("epoch-events", ParamType::Int, "0",
             "sharded runner: target events per epoch; 0 derives "
             "min(max(2n, 1024), 2^28) and adapts");
  schema.add("epoch-adaptive", ParamType::Bool, "true",
             "sharded runner: adapt the derived epoch target from the "
             "deferred-event fraction (ignored when epoch-events is set)");
  schema.add("rate-spread", ParamType::Double, "0.0",
             "sharded runner: heterogeneous Poisson rates — particle i "
             "activates at rate 1 + spread*i/(n-1); 0 keeps the uniform "
             "chain");
}

[[nodiscard]] double rateSpreadFrom(const ParamMap& params) {
  const double spread = params.getDouble("rate-spread", 0.0);
  SOPS_REQUIRE(std::isfinite(spread) && spread >= 0.0,
               "rate-spread must be finite and non-negative");
  return spread;
}

/// Deterministic heterogeneous-rate ramp: particle i activates at rate
/// 1 + spread·i/(n−1).  The stationary distribution is unchanged (each
/// move's reverse is proposed by the same particle's clock — see the
/// sharded runner headers); only selection frequencies shift.  spread = 0
/// returns the empty vector, i.e. the bit-identical uniform default.
[[nodiscard]] std::vector<double> rampRates(double spread, std::size_t n) {
  if (spread == 0.0) return {};
  std::vector<double> rates(n);
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = 1.0 + spread * (static_cast<double>(i) / denom);
  }
  return rates;
}

[[nodiscard]] std::uint64_t epochEventsFrom(const ParamMap& params) {
  const std::int64_t epochEvents = params.getInt("epoch-events", 0);
  SOPS_REQUIRE(epochEvents >= 0, "epoch-events must be non-negative");
  // The runners materialize one epoch's whole event schedule in memory
  // (~16 bytes/event), so a steps-sized value landing in this key (1e9+)
  // would OOM before a single event runs — the same typo class the
  // threads cap rejects.  2^28 ≈ 2.7e8 is above any in-memory epoch that
  // makes sense (the 0 default derives 2n) and below typo'd step counts.
  SOPS_REQUIRE(epochEvents <= (std::int64_t{1} << 28),
               "epoch-events must be at most 2^28");
  return static_cast<std::uint64_t>(epochEvents);
}

[[nodiscard]] core::ChainOptions chainOptionsFrom(const ParamMap& params) {
  core::ChainOptions options;
  options.lambda = params.getDouble("lambda", options.lambda);
  options.greedy = params.getBool("greedy", options.greedy);
  options.enforceGapCondition =
      params.getBool("gap", options.enforceGapCondition);
  options.enforceProperties =
      params.getBool("properties", options.enforceProperties);
  options.allowProperty2 =
      params.getBool("property2", options.allowProperty2);
  return options;
}

/// One replica of a chain scenario on either driver — the sequential
/// BiasedChainEngine or the multi-core ShardedChainRunner.  Both expose
/// the same runAtLeast/setCancelToken/system()/edges()/stats()/model()/
/// saveState/restoreState surface, so one adapter and one sampler per
/// scenario serve both, and a metric cannot drift between the two
/// execution disciplines.  advance() is driver.runAtLeast(): exact for the
/// engine, rounded up to whole epochs for the runner (stepsDone() reports
/// the exact count either way).
template <typename Driver>
class ChainRun : public ScenarioRun {
 public:
  using Sampler = void (*)(const Driver&, std::vector<double>&);

  ChainRun(Driver driver, Sampler sampler)
      : driver_(std::move(driver)), sampler_(sampler) {}

  void advance(std::uint64_t steps) override { driver_.runAtLeast(steps); }
  [[nodiscard]] std::uint64_t stepsDone() const override {
    return driver_.stats().steps;
  }
  void sampleMetrics(std::vector<double>& out) const override {
    sampler_(driver_, out);
  }
  [[nodiscard]] system::ParticleSystem snapshot() const override {
    return driver_.system();
  }
  [[nodiscard]] std::string regime() const override {
    return driver_.system().regimeName();
  }
  void setCancelToken(const core::CancelToken* cancel) override {
    driver_.setCancelToken(cancel);
  }
  [[nodiscard]] bool supportsSnapshots() const override { return true; }
  void saveState(system::SnapshotWriter& w) const override {
    driver_.saveState(w);
  }
  void restoreState(system::SnapshotReader& r) override {
    driver_.restoreState(r);
  }

 private:
  Driver driver_;
  Sampler sampler_;
};

/// Builds the sequential-or-sharded run for one chain scenario: threads
/// ≤ 1 is the sequential engine (the draw-for-draw historical path),
/// threads > 1 the sharded runner with that stripe budget.  `sample` is a
/// captureless generic lambda, instantiated for whichever driver runs.
template <typename Model, typename Sample>
  requires core::ChainWeightModel<Model>
std::unique_ptr<ScenarioRun> makeChainRun(system::ParticleSystem initial,
                                          Model model, const RunSpec& spec,
                                          std::uint64_t replicaSeed,
                                          unsigned workerThreads,
                                          Sample sample) {
  const double rateSpread = rateSpreadFrom(spec.params);
  if (workerThreads > 1) {
    core::ShardedChainOptions options;
    options.threads = workerThreads;
    options.targetEventsPerEpoch = epochEventsFrom(spec.params);
    options.adaptiveEpochs = spec.params.getBool("epoch-adaptive", true);
    options.rates = rampRates(rateSpread, initial.size());
    using Runner = core::ShardedChainRunner<Model>;
    return std::make_unique<ChainRun<Runner>>(
        Runner(std::move(initial), std::move(model), replicaSeed, options),
        sample);
  }
  SOPS_REQUIRE(rateSpread == 0.0,
               "rate-spread requires threads > 1 (the sequential chain "
               "activates uniformly)");
  using Engine = core::BiasedChainEngine<Model>;
  return std::make_unique<ChainRun<Engine>>(
      Engine(std::move(initial), std::move(model), replicaSeed), sample);
}

// -- compression ------------------------------------------------------------

constexpr auto sampleCompression = [](const auto& engine,
                                      std::vector<double>& out) {
  const system::ParticleSystem& sys = engine.system();
  // One walk counts the holes; the exact perimeter follows from them and
  // the tracked edge count (p = 3n − e − 3 + 3·holes).
  const std::int64_t holes = system::countHoles(sys);
  const std::int64_t perimeter = system::perimeterFromCounts(
      static_cast<std::int64_t>(sys.size()), engine.edges(), holes);
  out.push_back(static_cast<double>(engine.edges()));
  out.push_back(static_cast<double>(perimeter));
  out.push_back(alphaOf(perimeter, sys.size()));
  out.push_back(engine.stats().movement.acceptanceRate());
  out.push_back(static_cast<double>(holes));
};

class CompressionScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "compression"; }
  [[nodiscard]] std::string description() const override {
    return "the paper's chain M: w = lambda^e";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    addChainKeys(schema);
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"edges", "perimeter", "alpha", "acceptance", "holes"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    return makeChainRun(
        spec.makeInitial(replicaSeed),
        core::CompressionModel(chainOptionsFrom(spec.params)), spec,
        replicaSeed, workerThreads, sampleCompression);
  }
};

// -- separation -------------------------------------------------------------

constexpr auto sampleSeparation = [](const auto& engine,
                                     std::vector<double>& out) {
  const system::ParticleSystem& sys = engine.system();
  const std::int64_t perimeter = system::perimeter(sys);
  out.push_back(static_cast<double>(engine.edges()));
  out.push_back(static_cast<double>(perimeter));
  out.push_back(alphaOf(perimeter, sys.size()));
  // engine.edges() is the incrementally tracked e(σ) — no recount, and 0
  // edges (n = 1) reads as fraction 0 rather than NaN.
  out.push_back(engine.edges() == 0
                    ? 0.0
                    : static_cast<double>(
                          engine.model().homogeneousEdges(sys)) /
                          static_cast<double>(engine.edges()));
};

class SeparationScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "separation"; }
  [[nodiscard]] std::string description() const override {
    return "two colors, w = lambda^e gamma^hom (Cannon et al. [9])";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    schema.add("lambda", ParamType::Double, "4.0",
               "compression bias on edges");
    schema.add("gamma", ParamType::Double, "4.0",
               "homogeneity bias on monochromatic edges");
    schema.add("swaps", ParamType::Bool, "true", "enable color-swap moves");
    schema.add("swap-prob", ParamType::Double, "0.5",
               "mixture weight of the swap move");
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"edges", "perimeter", "alpha", "hom_fraction"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    core::SeparationModel::Options options;
    options.lambda = spec.params.getDouble("lambda", options.lambda);
    options.gamma = spec.params.getDouble("gamma", options.gamma);
    options.enableSwaps = spec.params.getBool("swaps", options.enableSwaps);
    options.swapProbability =
        spec.params.getDouble("swap-prob", options.swapProbability);
    system::ParticleSystem initial = spec.makeInitial(replicaSeed);
    auto colors = system::alternatingClasses(initial.size(), 2);
    return makeChainRun(
        std::move(initial), core::SeparationModel(options, std::move(colors)),
        spec, replicaSeed, workerThreads, sampleSeparation);
  }
};

// -- alignment --------------------------------------------------------------

constexpr auto sampleAlignment = [](const auto& engine,
                                    std::vector<double>& out) {
  const system::ParticleSystem& sys = engine.system();
  const std::int64_t perimeter = system::perimeter(sys);
  out.push_back(static_cast<double>(engine.edges()));
  out.push_back(static_cast<double>(perimeter));
  out.push_back(alphaOf(perimeter, sys.size()));
  out.push_back(engine.edges() == 0
                    ? 0.0
                    : static_cast<double>(engine.model().alignedEdges(sys)) /
                          static_cast<double>(engine.edges()));
};

class AlignmentScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "alignment"; }
  [[nodiscard]] std::string description() const override {
    return "6-state orientations, w = lambda^e kappa^ali "
           "(Kedia-Oh-Randall style)";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    schema.add("lambda", ParamType::Double, "4.0",
               "compression bias on edges");
    schema.add("kappa", ParamType::Double, "4.0",
               "alignment bias on equal-orientation edges");
    schema.add("rotations", ParamType::Bool, "true",
               "enable orientation re-sampling moves");
    schema.add("rotation-prob", ParamType::Double, "0.5",
               "mixture weight of the rotation move");
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"edges", "perimeter", "alpha", "aligned_fraction"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    core::AlignmentModel::Options options;
    options.lambda = spec.params.getDouble("lambda", options.lambda);
    options.kappa = spec.params.getDouble("kappa", options.kappa);
    options.enableRotations =
        spec.params.getBool("rotations", options.enableRotations);
    options.rotationProbability =
        spec.params.getDouble("rotation-prob", options.rotationProbability);
    system::ParticleSystem initial = spec.makeInitial(replicaSeed);
    auto orientations = system::alternatingClasses(
        initial.size(), core::AlignmentModel::kOrientations);
    return makeChainRun(
        std::move(initial),
        core::AlignmentModel(options, std::move(orientations)), spec,
        replicaSeed, workerThreads, sampleAlignment);
  }
};

// -- amoebot (Algorithm A on the sharded Poisson runner) --------------------

class AmoebotRun : public ScenarioRun {
 public:
  AmoebotRun(const system::ParticleSystem& initial, double lambda,
             double crashFraction, std::uint64_t seed,
             amoebot::ShardedOptions options)
      : sysRng_(seed), sys_(initial, sysRng_), algo_({lambda}) {
    if (crashFraction > 0.0) {
      rng::Random faultRng(seed + 1);
      amoebot::applyFaults(
          sys_, amoebot::randomCrashes(sys_.size(), crashFraction, faultRng));
    }
    runner_.emplace(sys_, algo_, seed + 2, std::move(options));
  }

  void advance(std::uint64_t steps) override { runner_->runAtLeast(steps); }
  [[nodiscard]] std::uint64_t stepsDone() const override {
    return runner_->activations();
  }
  void sampleMetrics(std::vector<double>& out) const override {
    const system::ParticleSystem tails = sys_.tailConfiguration();
    const std::int64_t perimeter = system::perimeter(tails);
    out.push_back(static_cast<double>(perimeter));
    out.push_back(alphaOf(perimeter, tails.size()));
    out.push_back(runner_->activations() == 0
                      ? 0.0
                      : static_cast<double>(runner_->sweepActivations()) /
                            static_cast<double>(runner_->activations()));
    out.push_back(runner_->now());
  }
  [[nodiscard]] system::ParticleSystem snapshot() const override {
    return sys_.tailConfiguration();
  }
  [[nodiscard]] std::string regime() const override {
    return sys_.regimeName();
  }
  void setCancelToken(const core::CancelToken* cancel) override {
    runner_->setCancelToken(cancel);
  }
  [[nodiscard]] bool supportsSnapshots() const override { return true; }
  // The system (particle structs, fault flags, window geometry) and the
  // runner (clock, activation count, epoch state) serialize back to back;
  // the constructor's random orientation/fault draws are overwritten
  // wholesale on restore, so a resumed run needs only the same spec and
  // seed.  A pre-v4 frame is rejected before the system is touched.
  void saveState(system::SnapshotWriter& w) const override {
    sys_.saveState(w);
    runner_->saveState(w);
  }
  void restoreState(system::SnapshotReader& r) override {
    core::requireStripeEpochFrame(r);
    sys_.restoreState(r);
    runner_->restoreState(r);
  }

 private:
  rng::Random sysRng_;
  amoebot::AmoebotSystem sys_;
  amoebot::LocalCompressionAlgorithm algo_;
  std::optional<amoebot::ShardedPoissonRunner> runner_;
};

class AmoebotScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "amoebot"; }
  [[nodiscard]] std::string description() const override {
    return "Algorithm A on the sharded Poisson runner (steps = activations; "
           "deterministic per seed for every thread count)";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    schema.add("lambda", ParamType::Double, "4.0",
               "compression bias on edges");
    schema.add("crash-fraction", ParamType::Double, "0.0",
               "fraction of particles crashed at start (section 3.3)");
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"perimeter", "alpha", "sweep_fraction", "sim_time"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    const double crashFraction =
        spec.params.getDouble("crash-fraction", 0.0);
    SOPS_REQUIRE(crashFraction >= 0.0 && crashFraction < 1.0,
                 "crash-fraction must be in [0, 1)");
    system::ParticleSystem initial = spec.makeInitial(replicaSeed);
    amoebot::ShardedOptions options;
    options.threads = workerThreads;
    options.targetEventsPerEpoch = epochEventsFrom(spec.params);
    options.adaptiveEpochs = spec.params.getBool("epoch-adaptive", true);
    options.rates = rampRates(rateSpreadFrom(spec.params), initial.size());
    return std::make_unique<AmoebotRun>(
        std::move(initial), spec.params.getDouble("lambda", 4.0),
        crashFraction, replicaSeed, std::move(options));
  }
};

}  // namespace

void registerBuiltins(Registry& registry) {
  registry.add(std::make_unique<CompressionScenario>());
  registry.add(std::make_unique<SeparationScenario>());
  registry.add(std::make_unique<AlignmentScenario>());
  registry.add(std::make_unique<AmoebotScenario>());
}

}  // namespace sops::sim
