// Cross-module integration tests: miniature versions of the paper's
// headline experiments (Fig 2, Fig 10), sampled-vs-exact stationary checks,
// and the rule ablations of E13 (each chain rule is load-bearing).
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "core/compression_chain.hpp"
#include "core/scenario_models.hpp"
#include "enumeration/exact_distribution.hpp"
#include "io/ascii_render.hpp"
#include "markov/stationary.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops {
namespace {

using core::ChainOptions;

ChainOptions withLambda(double lambda) {
  ChainOptions options;
  options.lambda = lambda;
  return options;
}

TEST(Integration, MiniFig2CompressionAtLambdaFour) {
  // Fig 2 scaled down: a 30-particle line at λ=4 compresses to a small
  // constant times p_min well within the budget.
  core::CompressionEngine chain(system::lineConfiguration(30),
                                core::CompressionModel(withLambda(4.0)), 2016);
  chain.run(600000);
  const auto summary = system::summarize(chain.system());
  EXPECT_TRUE(summary.connected);
  EXPECT_EQ(summary.holes, 0);
  EXPECT_LT(summary.perimeterRatio, 2.0);
}

TEST(Integration, MiniFig10NoCompressionAtLambdaTwo) {
  // Fig 10 scaled down: λ=2 stays expanded — perimeter remains a constant
  // fraction of p_max (Theorem 5.7 regime).
  core::CompressionEngine chain(system::lineConfiguration(30),
                                core::CompressionModel(withLambda(2.0)), 2016);
  chain.run(600000);
  const auto p = system::perimeter(chain.system());
  EXPECT_GT(static_cast<double>(p),
            0.5 * static_cast<double>(system::pMax(30)));
}

TEST(Integration, ChainSamplesExactStationaryDistribution) {
  // E5: long-run samples of M on n=4 match π = λ^e/Z in total variation.
  const int n = 4;
  const double lambda = 3.0;
  const enumeration::ExactEnsemble ensemble(n);
  std::unordered_map<std::string, std::size_t> indexOf;
  for (std::size_t i = 0; i < ensemble.configs().size(); ++i) {
    indexOf.emplace(
        system::canonicalKeyFromPoints(ensemble.configs()[i].points), i);
  }
  const std::vector<double> exact = ensemble.stationary(lambda);

  core::CompressionEngine chain(system::lineConfiguration(n),
                                core::CompressionModel(withLambda(lambda)), 99);
  chain.run(20000);  // burn-in
  std::vector<double> empirical(exact.size(), 0.0);
  const int samples = 150000;
  for (int s = 0; s < samples; ++s) {
    chain.run(25);
    const auto it = indexOf.find(system::canonicalKey(chain.system()));
    ASSERT_NE(it, indexOf.end()) << "chain left Ω*";
    empirical[it->second] += 1.0 / samples;
  }
  EXPECT_LT(markov::totalVariation(empirical, exact), 0.05);
}

TEST(Integration, AblationNoGapConditionCreatesHoles) {
  // E13: dropping condition (1) (e ≠ 5) lets holes form from a hole-free
  // start — the rule is what Lemma 3.2 rests on.
  ChainOptions options = withLambda(4.0);
  options.enforceGapCondition = false;
  core::CompressionEngine chain(system::lineConfiguration(30),
                                core::CompressionModel(options), 5);
  bool sawHole = false;
  for (int burst = 0; burst < 300 && !sawHole; ++burst) {
    chain.run(1000);
    sawHole = system::countHoles(chain.system()) > 0;
  }
  EXPECT_TRUE(sawHole) << "gap-condition ablation never produced a hole";
}

TEST(Integration, AblationNoPropertiesDisconnects) {
  // E13: dropping condition (2) lets the system disconnect (Lemma 3.1's
  // guarantee disappears).
  ChainOptions options = withLambda(1.5);
  options.enforceProperties = false;
  core::CompressionEngine chain(system::lineConfiguration(30),
                                core::CompressionModel(options), 5);
  bool sawDisconnect = false;
  for (int burst = 0; burst < 300 && !sawDisconnect; ++burst) {
    chain.run(1000);
    sawDisconnect = !system::isConnected(chain.system());
  }
  EXPECT_TRUE(sawDisconnect) << "property ablation never disconnected";
}

TEST(Integration, FullRulesNeverDisconnectNorHole) {
  // Control for the two ablations above, same seeds and budgets.
  core::CompressionEngine chain(system::lineConfiguration(30),
                                core::CompressionModel(withLambda(4.0)), 5);
  for (int burst = 0; burst < 300; ++burst) {
    chain.run(1000);
    ASSERT_TRUE(system::isConnected(chain.system()));
    ASSERT_EQ(system::countHoles(chain.system()), 0);
  }
}

TEST(Integration, P1OnlyAblationShrinksTheValidMoveSet) {
  // Fig 3's theme: with Property 2 disallowed, the valid-move set of every
  // configuration is a (sometimes strict) subset of the full rule's.
  ChainOptions full = withLambda(4.0);
  ChainOptions p1Only = withLambda(4.0);
  p1Only.allowProperty2 = false;
  core::CompressionEngine chain(system::lineConfiguration(25),
                                core::CompressionModel(full), 77);
  std::uint64_t fullMoves = 0;
  std::uint64_t p1Moves = 0;
  for (int burst = 0; burst < 100; ++burst) {
    chain.run(2000);
    const auto& sys = chain.system();
    for (std::size_t i = 0; i < sys.size(); ++i) {
      for (const lattice::Direction d : lattice::kAllDirections) {
        const core::MoveEvaluation eval =
            core::evaluateMove(sys, sys.position(i), d);
        const bool validFull = core::acceptanceProbability(eval, full) > 0.0;
        const bool validP1 = core::acceptanceProbability(eval, p1Only) > 0.0;
        ASSERT_LE(validP1,
                  validFull);  // subset, configuration by configuration
        fullMoves += validFull ? 1 : 0;
        p1Moves += validP1 ? 1 : 0;
      }
    }
  }
  EXPECT_LT(p1Moves, fullMoves);  // strictly smaller overall
}

TEST(Integration, RenderPipelineProducesSnapshot) {
  core::CompressionEngine chain(system::lineConfiguration(40),
                                core::CompressionModel(withLambda(4.0)), 11);
  chain.run(200000);
  const std::string art = io::renderAscii(chain.system());
  // The snapshot contains exactly n particle glyphs.
  EXPECT_EQ(static_cast<int>(std::count(art.begin(), art.end(), 'o')), 40);
  // Compressed: the bounding box is far narrower than the initial line.
  EXPECT_LT(art.size(), 1200u);
}

TEST(Integration, PerimeterSeriesDecreasesUnderCompression) {
  core::CompressionEngine chain(system::lineConfiguration(40),
                                core::CompressionModel(withLambda(4.0)), 13);
  std::vector<double> ratios;
  for (int checkpoint = 0; checkpoint < 10; ++checkpoint) {
    chain.run(40000);
    ratios.push_back(system::summarize(chain.system()).perimeterRatio);
  }
  ASSERT_EQ(ratios.size(), 10u);
  // Monotone-ish decrease: final much below initial, and the minimum is at
  // the tail half.
  EXPECT_LT(ratios.back(), ratios.front() * 0.6);
}

}  // namespace
}  // namespace sops
