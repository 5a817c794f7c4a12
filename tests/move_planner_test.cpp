// Tests for the move planner (S6): executable witnesses of the paper's
// ergodicity results — Lemma 3.7 (everything reaches the line), Lemma 3.8
// (holed states reach Ω*), Lemma 3.10 (Ω* irreducible), and reversibility.
#include <gtest/gtest.h>

#include "core/move_planner.hpp"
#include "rng/random.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/serialize.hpp"
#include "system/shapes.hpp"

namespace sops::core {
namespace {

using system::ParticleSystem;

TEST(MovePlanner, TrivialPlanWhenAlreadyAtTarget) {
  const ParticleSystem line = system::lineConfiguration(5);
  const auto plan = planToLine(line);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->moves.empty());
}

TEST(MovePlanner, TargetMayBeATranslate) {
  ParticleSystem source = system::lineConfiguration(4);
  std::vector<lattice::TriPoint> shifted;
  for (const auto p : source.positions()) {
    shifted.push_back(p + lattice::TriPoint{100, -50});
  }
  const auto plan = planMoves(source, ParticleSystem(shifted));
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->moves.empty());  // same configuration class
}

TEST(MovePlanner, SpiralToLineWitnessesLemma37) {
  // Lemma 3.7: a valid move sequence from the most compressed configuration
  // to the line (the other extreme).
  const ParticleSystem spiral = system::spiralConfiguration(7);
  const auto plan = planToLine(spiral);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->moves.empty());
  const ParticleSystem final = replayPlan(spiral,
                                          *plan);  // validates each move
  EXPECT_EQ(system::canonicalKey(final),
            system::canonicalKey(system::lineConfiguration(7)));
}

TEST(MovePlanner, ReplayKeepsParticleIdsRecordedText) {
  // replayPlan moves the particle found at each move's source cell, so
  // the replayed system's particle order is a function of the plan.
  const ParticleSystem spiral = system::spiralConfiguration(7);
  const auto plan = planToLine(spiral);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(system::toText(replayPlan(spiral, *plan)),
            "0,0 2,0 1,0 3,0 -3,0 -1,0 -2,0");
}

TEST(MovePlanner, RingToLineWitnessesLemma38) {
  // Lemma 3.8: the holed ring reaches Ω* (and then the line) via valid
  // moves; along the replay, connectivity is never lost (Lemma 3.1).
  const ParticleSystem ring = system::ringConfiguration(1);
  ASSERT_EQ(system::countHoles(ring), 1);
  const auto plan = planToLine(ring);
  ASSERT_TRUE(plan.has_value());

  // Replay step by step, asserting connectivity throughout.
  ParticleSystem sys = ring;
  for (const PlannedMove& move : plan->moves) {
    MovePlan single;
    single.moves = {move};
    sys = replayPlan(sys, single);
    ASSERT_TRUE(system::isConnected(sys));
  }
  EXPECT_EQ(system::canonicalKey(sys),
            system::canonicalKey(system::lineConfiguration(6)));
  EXPECT_EQ(system::countHoles(sys), 0);
}

TEST(MovePlanner, RandomPairsAreMutuallyReachable) {
  // Lemma 3.10 sampled: arbitrary hole-free pairs connect both ways.
  rng::Random rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const std::int64_t n = 5 + static_cast<std::int64_t>(rng.below(3));
    const ParticleSystem a = system::randomHoleFree(n, rng);
    const ParticleSystem b = system::randomHoleFree(n, rng);
    const auto forward = planMoves(a, b);
    const auto backward = planMoves(b, a);
    ASSERT_TRUE(forward.has_value()) << "trial " << trial;
    ASSERT_TRUE(backward.has_value()) << "trial " << trial;
    EXPECT_EQ(system::canonicalKey(replayPlan(a, *forward)),
              system::canonicalKey(b));
    EXPECT_EQ(system::canonicalKey(replayPlan(b, *backward)),
              system::canonicalKey(a));
  }
}

TEST(MovePlanner, P1OnlyKernelStillPlansAtSmallSizes) {
  // P1-only irreducibility holds for n ≤ 9 (bench_fig3); the planner under
  // the ablated kernel must still find routes at small n.
  ChainOptions p1Only;
  p1Only.allowProperty2 = false;
  const ParticleSystem spiral = system::spiralConfiguration(6);
  const auto plan = planToLine(spiral, p1Only);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(system::canonicalKey(replayPlan(spiral, *plan, p1Only)),
            system::canonicalKey(system::lineConfiguration(6)));
}

TEST(MovePlanner, StateLimitIsHonored) {
  const ParticleSystem spiral = system::spiralConfiguration(8);
  const auto plan = planToLine(spiral, ChainOptions{}, /*stateLimit=*/10);
  EXPECT_FALSE(plan.has_value());
}

TEST(MovePlanner, PlansAreShortestInStateGraph) {
  // BFS optimality spot check: a single Property-1 slide away.
  const std::vector<lattice::TriPoint> triangle{{0, 0}, {1, 0}, {0, 1}};
  const std::vector<lattice::TriPoint> bent{{0, 0}, {1, 0}, {1, 1}};
  const auto plan =
      planMoves(ParticleSystem(triangle), ParticleSystem(bent));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->moves.size(), 1u);
}

TEST(MovePlanner, RejectsMismatchedSizes) {
  EXPECT_THROW(
      (void)planMoves(system::lineConfiguration(4),
                      system::lineConfiguration(5)),
      ContractViolation);
}

TEST(MovePlanner, ReplayRejectsCorruptedPlans) {
  const ParticleSystem line = system::lineConfiguration(4);
  MovePlan bogus;
  bogus.moves = {{{0, 0}, {0, 1}}};  // moving an interior-ish particle up...
  // (0,0) is the line's end; moving it NE is actually valid.  Corrupt it:
  bogus.moves = {{{1, 0}, {1, 1}}};  // disconnects the line: must throw
  EXPECT_THROW((void)replayPlan(line, bogus), ContractViolation);
  MovePlan unoccupied;
  unoccupied.moves = {{{9, 9}, {9, 10}}};
  EXPECT_THROW((void)replayPlan(line, unoccupied), ContractViolation);
}

}  // namespace
}  // namespace sops::core
