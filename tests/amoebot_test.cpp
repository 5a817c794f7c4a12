// Tests for the amoebot substrate (S7): expand/contract mechanics, head and
// tail occupancy, the N* oracle, flags, and private orientations (§2.1).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "system/shapes.hpp"

namespace sops::amoebot {
namespace {

using lattice::Direction;
using lattice::TriPoint;

AmoebotSystem makeSystem(const std::vector<TriPoint>& points,
                         std::uint64_t seed = 1) {
  rng::Random rng(seed);
  return AmoebotSystem(system::ParticleSystem(points), rng);
}

TEST(AmoebotSystem, InitialStateIsContracted) {
  const AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_EQ(sys.size(), 2u);
  EXPECT_EQ(sys.expandedCount(), 0u);
  for (std::size_t id = 0; id < sys.size(); ++id) {
    EXPECT_FALSE(sys.particle(id).expanded);
    EXPECT_EQ(sys.particle(id).head, sys.particle(id).tail);
  }
}

TEST(AmoebotSystem, ExpandOccupiesHeadAndTail) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  EXPECT_TRUE(sys.particle(0).expanded);
  EXPECT_EQ(sys.particle(0).head, (TriPoint{0, 1}));
  EXPECT_EQ(sys.particle(0).tail, (TriPoint{0, 0}));
  EXPECT_TRUE(sys.occupied({0, 1}));
  EXPECT_TRUE(sys.occupied({0, 0}));
  // The head is invisible to N* (step 9), the tail is not.
  EXPECT_FALSE(sys.occupiedExcludingHeads({0, 1}, 1));
  EXPECT_TRUE(sys.occupiedExcludingHeads({0, 0}, 1));
  EXPECT_EQ(sys.expandedCount(), 1u);
}

TEST(AmoebotSystem, ExpandIntoOccupiedThrows) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_THROW(sys.expand(0, Direction::East), ContractViolation);
}

TEST(AmoebotSystem, DoubleExpandThrows) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  EXPECT_THROW(sys.expand(0, Direction::NorthWest), ContractViolation);
}

TEST(AmoebotSystem, ContractToHeadCompletesMove) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  sys.contractToHead(0);
  EXPECT_FALSE(sys.particle(0).expanded);
  EXPECT_EQ(sys.particle(0).tail, (TriPoint{0, 1}));
  EXPECT_FALSE(sys.occupied({0, 0}));
  EXPECT_TRUE(sys.occupied({0, 1}));
  // Now an ordinary contracted cell, visible to N*.
  EXPECT_TRUE(sys.occupiedExcludingHeads({0, 1}, 1));
  EXPECT_EQ(sys.expandedCount(), 0u);
}

TEST(AmoebotSystem, ContractBackAbortsMove) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  sys.contractBack(0);
  EXPECT_FALSE(sys.particle(0).expanded);
  EXPECT_EQ(sys.particle(0).tail, (TriPoint{0, 0}));
  EXPECT_TRUE(sys.occupied({0, 0}));
  EXPECT_FALSE(sys.occupied({0, 1}));
}

TEST(AmoebotSystem, ContractWhenContractedThrows) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_THROW(sys.contractToHead(0), ContractViolation);
  EXPECT_THROW(sys.contractBack(0), ContractViolation);
}

TEST(AmoebotSystem, ExpandedParticleAdjacentDetection) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}, {3, 0}});
  EXPECT_FALSE(sys.expandedParticleAdjacent({1, 0}, 1));
  sys.expand(0, Direction::NorthEast);  // particle 0 occupies (0,0)+(0,1)
  // (1,0) is adjacent to both cells of particle 0.
  EXPECT_TRUE(sys.expandedParticleAdjacent({1, 0}, 1));
  // (3,0) is adjacent to (2,0),(4,0)... none of particle 0's cells.
  EXPECT_FALSE(sys.expandedParticleAdjacent({3, 0}, 2));
  // Self is excluded.
  EXPECT_FALSE(sys.expandedParticleAdjacent({0, 0}, 0));
}

TEST(AmoebotSystem, NStarOracleIgnoresHeads) {
  AmoebotSystem sys = makeSystem({{0, 0}, {2, 0}});
  sys.expand(0, Direction::East);  // head at (1,0), adjacent to (2,0)
  // From particle 1's perspective, the head at (1,0) is not a neighbor
  // under N* (step 9 of Algorithm A)...
  EXPECT_FALSE(sys.occupiedExcludingHeads({1, 0}, 1));
  // ...but the tail at (0,0) would be.
  EXPECT_TRUE(sys.occupiedExcludingHeads({0, 0}, 1));
  // A particle's own cells never count.
  EXPECT_FALSE(sys.occupiedExcludingHeads({1, 0}, 0));
  // Contracted particles count normally.
  EXPECT_TRUE(sys.occupiedExcludingHeads({2, 0}, 0));
}

TEST(AmoebotSystem, GlobalDirectionIsBijectivePerParticle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AmoebotSystem sys = makeSystem({{0, 0}, {5, 5}}, seed);
    for (std::size_t id = 0; id < sys.size(); ++id) {
      std::set<int> images;
      for (int port = 0; port < 6; ++port) {
        images.insert(index(sys.globalDirection(id, port)));
      }
      EXPECT_EQ(images.size(), 6u) << "seed " << seed;
    }
  }
}

TEST(AmoebotSystem, OrientationsVaryAcrossParticles) {
  rng::Random rng(99);
  const AmoebotSystem sys(system::lineConfiguration(30), rng);
  std::set<std::pair<int, bool>> orientations;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    orientations.insert(
        {sys.particle(id).orientationOffset, sys.particle(id).mirrored});
  }
  EXPECT_GT(orientations.size(), 3u);  // no shared compass
}

TEST(AmoebotSystem, TailConfigurationProjectsExpandedParticles) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  sys.expand(0, Direction::NorthEast);
  const system::ParticleSystem tails = sys.tailConfiguration();
  EXPECT_EQ(tails.size(), 2u);
  EXPECT_TRUE(tails.occupied({0, 0}));  // expanded particle counted at tail
  EXPECT_TRUE(tails.occupied({1, 0}));
  EXPECT_FALSE(tails.occupied({0, 1}));
}

TEST(AmoebotSystem, FlagStorage) {
  AmoebotSystem sys = makeSystem({{0, 0}, {1, 0}});
  EXPECT_FALSE(sys.particle(0).flag);
  sys.setFlag(0, true);
  EXPECT_TRUE(sys.particle(0).flag);
  sys.setFlag(0, false);
  EXPECT_FALSE(sys.particle(0).flag);
}

}  // namespace
}  // namespace sops::amoebot
