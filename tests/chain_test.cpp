// Tests for the Markov chain M (S6), run as core::CompressionEngine: the
// per-move rules on hand-built configurations (through the decision table
// every step reads), determinism, and the paper's invariants (Lemmas 3.1,
// 3.2, 3.9) asserted along real trajectories.
#include <gtest/gtest.h>

#include <vector>

#include "core/biased_chain_engine.hpp"
#include "core/compression_chain.hpp"
#include "core/scenario_models.hpp"
#include "rng/random.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

using lattice::Direction;
using lattice::TriPoint;
using system::ParticleSystem;

ChainOptions withLambda(double lambda) {
  ChainOptions options;
  options.lambda = lambda;
  return options;
}

CompressionEngine makeEngine(const ParticleSystem& start, ChainOptions options,
                             std::uint64_t seed) {
  return CompressionEngine(start, CompressionModel(options), seed);
}

/// The decision-table row a step reads for the proposal (ℓ, d) when ℓ' is
/// unoccupied: stage, threshold λ^{e'−e} and the no-draw shortcut.
MoveDecision decisionFor(const ParticleSystem& sys, TriPoint l, Direction d,
                         ChainOptions options) {
  return buildDecisionTable(options)[ringMask(sys, l, d)];
}

std::uint8_t stageOf(StepOutcome outcome) {
  return static_cast<std::uint8_t>(outcome);
}

TEST(ChainConstruction, RejectsDisconnectedStart) {
  const ParticleSystem sys(std::vector<TriPoint>{{0, 0}, {5, 5}});
  EXPECT_THROW(makeEngine(sys, withLambda(4.0), 1), ContractViolation);
}

TEST(ChainConstruction, RejectsNonPositiveLambda) {
  const ParticleSystem sys = system::lineConfiguration(4);
  EXPECT_THROW(makeEngine(sys, withLambda(0.0), 1), ContractViolation);
  EXPECT_THROW(makeEngine(sys, withLambda(-1.0), 1), ContractViolation);
}

TEST(ChainStep, DeterministicGivenSeed) {
  CompressionEngine a =
      makeEngine(system::lineConfiguration(20), withLambda(4.0), 99);
  CompressionEngine b =
      makeEngine(system::lineConfiguration(20), withLambda(4.0), 99);
  a.run(20000);
  b.run(20000);
  EXPECT_TRUE(a.system().sameArrangement(b.system()));
  EXPECT_EQ(a.stats().movement.accepted, b.stats().movement.accepted);
}

TEST(ChainStep, DifferentSeedsDiverge) {
  CompressionEngine a =
      makeEngine(system::lineConfiguration(20), withLambda(4.0), 1);
  CompressionEngine b =
      makeEngine(system::lineConfiguration(20), withLambda(4.0), 2);
  a.run(20000);
  b.run(20000);
  EXPECT_FALSE(a.system().sameArrangement(b.system()));
}

TEST(ChainStep, ParticleCountConserved) {
  CompressionEngine chain =
      makeEngine(system::lineConfiguration(15), withLambda(3.0), 5);
  chain.run(50000);
  EXPECT_EQ(chain.system().size(), 15u);
}

TEST(ChainStep, OutcomeCountsAddUp) {
  CompressionEngine chain =
      makeEngine(system::lineConfiguration(15), withLambda(4.0), 5);
  chain.run(10000);
  const ChainStats& s = chain.stats().movement;
  EXPECT_EQ(chain.stats().steps, 10000u);
  EXPECT_EQ(s.steps, 10000u);
  EXPECT_EQ(s.accepted + s.targetOccupied + s.rejectedGap + s.rejectedProperty +
                s.rejectedFilter,
            s.steps);
}

// ApplyProposal.*: one proposal's fate, read from the decision-table row
// a step uses — the same 16-byte row CompressionEngine::step() loads after
// its occupancy test.

TEST(ApplyProposal, GapRejection) {
  // Particle 0 at the center with 5 neighbors; the only empty neighbor is
  // East.  Condition (1) must reject regardless of q.
  std::vector<TriPoint> points{{0, 0}};
  for (const Direction d : lattice::kAllDirections) {
    if (d != Direction::East) points.push_back(lattice::neighbor({0, 0}, d));
  }
  const ParticleSystem sys(points);
  ASSERT_FALSE(sys.occupied(lattice::neighbor({0, 0}, Direction::East)));
  const MoveDecision decision =
      decisionFor(sys, {0, 0}, Direction::East, withLambda(4.0));
  EXPECT_EQ(decision.stage, stageOf(StepOutcome::RejectedGap));
}

TEST(ApplyProposal, MetropolisFilterThreshold) {
  // Triangle: moving the top particle East drops one neighbor (Δe = -1),
  // so with λ=4 acceptance needs q < 1/4.
  const ParticleSystem sys(std::vector<TriPoint>{{0, 0}, {1, 0}, {0, 1}});
  ASSERT_FALSE(sys.occupied({1, 1}));
  const MoveDecision decision =
      decisionFor(sys, {0, 1}, Direction::East, withLambda(4.0));
  EXPECT_EQ(decision.stage, kDecisionFilterStage);
  EXPECT_EQ(decision.delta, -1);
  EXPECT_EQ(decision.threshold, 0.25);
  EXPECT_FALSE(decision.acceptNoDraw);
  EXPECT_TRUE(0.2 < decision.threshold);    // q = 0.2 accepts
  EXPECT_FALSE(0.26 < decision.threshold);  // q = 0.26 rejects
}

TEST(ApplyProposal, UphillMovesAlwaysAccepted) {
  // λ>1: gaining neighbors accepts with probability 1 (threshold ≥ 1), so
  // the step draws no q at all.  Four in a row with one below: move the
  // lone bottom particle to tuck in.
  const ParticleSystem sys(
      std::vector<TriPoint>{{0, 0}, {1, 0}, {2, 0}, {0, -1}});
  // (0,-1) moving East to (1,-1): e=1 (only (0,0)) becomes e'=2
  // ((0,0) and (1,0)), so the threshold is λ^{+1}.
  ASSERT_FALSE(sys.occupied({1, -1}));
  const MoveDecision decision =
      decisionFor(sys, {0, -1}, Direction::East, withLambda(4.0));
  EXPECT_EQ(decision.stage, kDecisionFilterStage);
  EXPECT_EQ(decision.delta, 1);
  EXPECT_EQ(decision.threshold, 4.0);
  EXPECT_TRUE(decision.acceptNoDraw);
}

TEST(ApplyProposal, TargetOccupied) {
  // The step's first check, before any ring is gathered: run the shared
  // move body on a fixed proposal and the line must stay as it was.
  ParticleSystem sys = system::lineConfiguration(3);
  CompressionModel model(withLambda(4.0));
  rng::Random rng(1);
  std::int64_t edges = system::countEdges(sys);
  const EngineStepResult result = chainEventStep(
      sys, model, buildDecisionTable(model.chainOptions()),
      /*greedy=*/false, /*particle=*/0, lattice::index(Direction::East),
      /*auxMove=*/false, rng, edges);
  EXPECT_EQ(result.movement, StepOutcome::TargetOccupied);
  EXPECT_TRUE(sys.sameArrangement(system::lineConfiguration(3)));
  EXPECT_EQ(edges, 2);
}

TEST(ApplyProposal, PropertyRejectionOnWouldBeDisconnection) {
  // Middle of a line of 3 moving up would disconnect the ends.
  const ParticleSystem sys = system::lineConfiguration(3);
  const TriPoint middle = sys.position(1);
  ASSERT_FALSE(sys.occupied(lattice::neighbor(middle, Direction::NorthEast)));
  const MoveDecision decision =
      decisionFor(sys, middle, Direction::NorthEast, withLambda(4.0));
  EXPECT_EQ(decision.stage, stageOf(StepOutcome::RejectedProperty));
}

TEST(ChainInvariants, ConnectivityPreservedFromHoledStart) {
  // Lemma 3.1: connectivity is invariant, even while holes exist.
  rng::Random rng(7);
  const ParticleSystem start = system::randomConnected(40, rng);
  CompressionEngine chain = makeEngine(start, withLambda(4.0), 13);
  for (int burst = 0; burst < 100; ++burst) {
    chain.run(2000);
    ASSERT_TRUE(system::isConnected(chain.system())) << "burst " << burst;
  }
}

TEST(ChainInvariants, HoleFreeIsAbsorbing) {
  // Lemma 3.2: once hole-free, always hole-free.
  CompressionEngine chain =
      makeEngine(system::lineConfiguration(30), withLambda(4.0), 17);
  for (int burst = 0; burst < 200; ++burst) {
    chain.run(1000);
    ASSERT_EQ(system::countHoles(chain.system()), 0) << "burst " << burst;
  }
}

TEST(ChainInvariants, HolesEventuallyEliminated) {
  // Lemma 3.8 (behavioral): from a ring (one hole), the chain reaches Ω*.
  CompressionEngine chain =
      makeEngine(system::ringConfiguration(2), withLambda(4.0), 23);
  bool holeFree = false;
  for (int burst = 0; burst < 500 && !holeFree; ++burst) {
    chain.run(500);
    holeFree = system::countHoles(chain.system()) == 0;
  }
  EXPECT_TRUE(holeFree) << "ring hole did not close in 250k iterations";
}

TEST(ChainInvariants, AcceptedMovesAreReversible) {
  // Lemma 3.9: on Ω*, every executed move's reverse is a valid proposal.
  // The accepted move is recovered by diffing positions around the step.
  CompressionEngine chain =
      makeEngine(system::lineConfiguration(20), withLambda(4.0), 31);
  std::uint64_t checkedMoves = 0;
  std::vector<TriPoint> before = chain.system().positions();
  for (std::uint64_t step = 0; step < 50000; ++step) {
    const EngineStepResult result = chain.step();
    const std::vector<TriPoint>& after = chain.system().positions();
    if (result.movement != StepOutcome::Accepted) {
      ASSERT_EQ(before, after) << "a rejected step moved a particle";
      continue;
    }
    ++checkedMoves;
    std::size_t moved = 0;
    std::size_t movedCount = 0;
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i] != before[i]) {
        moved = i;
        ++movedCount;
      }
    }
    ASSERT_EQ(movedCount, 1u) << "an accepted step moves one particle";
    const auto back = lattice::directionBetween(after[moved], before[moved]);
    ASSERT_TRUE(back.has_value());
    const MoveEvaluation reverse =
        evaluateMove(chain.system(), after[moved], *back);
    ASSERT_FALSE(reverse.targetOccupied);
    ASSERT_TRUE(reverse.gapOk);
    ASSERT_TRUE(reverse.propertyOk);
    before = after;
  }
  EXPECT_GT(checkedMoves, 1000u);
}

TEST(ChainBehavior, CompressesAtLambdaFour) {
  // Fig 2 in miniature: n=50 from a line at λ=4 must visibly compress.
  CompressionEngine chain =
      makeEngine(system::lineConfiguration(50), withLambda(4.0), 41);
  const auto initial = system::perimeter(chain.system());
  chain.run(1500000);
  const auto finalPerimeter = system::perimeter(chain.system());
  EXPECT_LT(finalPerimeter, initial / 2);
  EXPECT_LT(static_cast<double>(finalPerimeter),
            2.2 * static_cast<double>(system::pMin(50)));
}

TEST(ChainBehavior, StaysExpandedAtLambdaOne) {
  // λ=1 (unbiased) keeps the perimeter near the maximum (Theorem 5.7
  // regime, in miniature).
  CompressionEngine chain =
      makeEngine(system::lineConfiguration(50), withLambda(1.0), 43);
  chain.run(1500000);
  const auto p = system::perimeter(chain.system());
  EXPECT_GT(static_cast<double>(p), 0.55 *
            static_cast<double>(system::pMax(50)));
}

TEST(ChainBehavior, GreedyOptionOnlyMovesWeaklyUphill) {
  ChainOptions options = withLambda(4.0);
  options.greedy = true;
  CompressionEngine chain =
      makeEngine(system::lineConfiguration(20), options, 47);
  std::int64_t previousEdges = system::countEdges(chain.system());
  for (int burst = 0; burst < 50; ++burst) {
    chain.run(1000);
    const std::int64_t edges = system::countEdges(chain.system());
    ASSERT_GE(edges, previousEdges) << "greedy chain lost edges";
    previousEdges = edges;
  }
}

TEST(ChainBehavior, LambdaBelowOneDisperses) {
  // λ < 1 disfavors neighbors: a compact spiral should lose edges.
  CompressionEngine chain =
      makeEngine(system::spiralConfiguration(30), withLambda(0.5), 53);
  const std::int64_t before = system::countEdges(chain.system());
  chain.run(500000);
  EXPECT_LT(system::countEdges(chain.system()), before);
}

}  // namespace
}  // namespace sops::core
