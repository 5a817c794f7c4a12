// E16 — The conclusion's representative follow-up ([9]): heterogeneous
// (two-color) particle systems.  The chain gains a homogeneity bias γ on
// monochromatic edges; γ ≫ 1 segregates colors while λ keeps the system
// compressed, γ < 1 integrates them.
//
// Since ISSUE 4 the λ×γ grid runs through the scenario facade: one
// separation RunSpec per grid point (sim::run constructs the identical
// core::SeparationEngine the direct path did — same colors, options, and
// seed, so the trajectories are unchanged).  The pre-engine sparse-path
// SeparationChain is kept as the reference and cross-checked both for
// agreement on the final observables and for the single-core throughput
// ratio recorded in BENCH_perf.json.
//
// Env knobs: SOPS_SEP_N, SOPS_SEP_ITERS, plus key=value argv overrides of
// the base spec (e.g. `bench_separation n=200 steps=1000000`).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/csv.hpp"
#include "bench_util.hpp"
#include "core/scenario_models.hpp"
#include "oracles/separation_chain.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

int main(int argc, char** argv) {
  using namespace sops;
  const sim::ParamMap base = bench::layeredParams(
      "scenario=separation shape=line n=100 steps=5000000 seed=1603",
      {{"n", "SOPS_SEP_N"}, {"steps", "SOPS_SEP_ITERS"}}, argc, argv);

  const std::vector<std::pair<double, double>> grid = {
      {4.0, 4.0}, {4.0, 1.0}, {4.0, 0.25}, {2.0, 4.0}};

  sim::RunSpec probe = sim::RunSpec::fromParams(base);
  bench::banner("E16 / [9]", "two-color separation scenario, n=" +
                                 std::to_string(probe.n));

  analysis::CsvWriter csv(bench::csvPath("separation.csv"),
                          {"lambda", "gamma", "hom_fraction", "alpha"});
  bench::Table table(
      {"lambda", "gamma", "hom-edge frac", "alpha=p/pmin", "expectation"},
      16);
  std::vector<sim::RunReport> reports;
  for (const auto& [lambda, gamma] : grid) {
    sim::ParamMap params = base;
    params.set("lambda", bench::fmt(lambda, 6));
    params.set("gamma", bench::fmt(gamma, 6));
    reports.push_back(sim::run(sim::RunSpec::fromParams(params)));
    const double hom = reports.back().finalMetric(0, "hom_fraction");
    const double alpha = reports.back().finalMetric(0, "alpha");
    const char* expectation = gamma > 1.5    ? "segregated"
                              : gamma < 0.75 ? "integrated"
                                             : "neutral";
    table.row({bench::fmt(lambda, 2), bench::fmt(gamma, 2), bench::fmt(hom),
               bench::fmt(alpha), expectation});
    csv.writeRow({analysis::formatDouble(lambda), analysis::formatDouble(gamma),
                  analysis::formatDouble(hom), analysis::formatDouble(alpha)});
  }

  // Cross-check: the sparse-path reference chain at the first grid point
  // must land in the same phase, and the engine (timed solo, constructed
  // exactly as the facade constructs it) must beat its throughput.
  {
    const std::int64_t n = probe.n;
    const std::uint64_t iterations = probe.steps;
    std::vector<std::uint8_t> colors =
        system::alternatingClasses(static_cast<std::size_t>(n), 2);
    extensions::SeparationOptions options;
    options.lambda = grid[0].first;
    options.gamma = grid[0].second;
    const auto refStart = std::chrono::steady_clock::now();
    extensions::SeparationChain reference(system::lineConfiguration(n), colors,
                                          options, probe.seed);
    reference.run(iterations);
    const double refSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      refStart)
            .count();
    const double refHom =
        static_cast<double>(reference.homogeneousEdges()) /
        static_cast<double>(system::countEdges(reference.system()));
    core::SeparationModel::Options engineOptions;
    engineOptions.lambda = grid[0].first;
    engineOptions.gamma = grid[0].second;
    const auto engineStart = std::chrono::steady_clock::now();
    core::SeparationEngine engine(
        system::lineConfiguration(n),
        core::SeparationModel(engineOptions, colors), probe.seed);
    engine.run(iterations);
    const double engineSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      engineStart)
            .count();
    const double engineHom = reports[0].finalMetric(0, "hom_fraction");
    // The solo engine re-run must reproduce the facade run exactly — the
    // facade is a re-layering, not a different sampler.
    const double soloHom =
        static_cast<double>(engine.model().homogeneousEdges(engine.system())) /
        static_cast<double>(system::countEdges(engine.system()));
    std::printf(
        "\nreference chain at lambda=%.1f gamma=%.1f: hom=%.3f (engine %.3f), "
        "%.2fs vs engine %.2fs (%.2fx)\n",
        options.lambda, options.gamma, refHom, engineHom, refSeconds,
        engineSeconds, refSeconds / engineSeconds);
    // Binding, not just printed: a facade/engine mismatch, a phase
    // divergence, or an engine slower than the sparse path it replaces
    // must fail the harness.
    if (soloHom != engineHom || std::abs(refHom - engineHom) > 0.15 ||
        engineSeconds > refSeconds) {
      std::fprintf(stderr,
                   "FAIL: engine/reference cross-check (facade dHom=%.3g, "
                   "ref dHom=%.3f, %.2fx)\n",
                   std::abs(soloHom - engineHom), std::abs(refHom - engineHom),
                   refSeconds / engineSeconds);
      return 1;
    }
  }

  std::printf(
      "\nshape to hold ([9]): hom-edge fraction increases with gamma while\n"
      "lambda=4 keeps alpha small; gamma<1 integrates (hom ~ 1/2).\n");
  return 0;
}
