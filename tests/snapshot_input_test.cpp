// Snapshot payloads come from outside the program, so every malformed one
// must fail with a named ContractViolation — never a std::length_error
// from an allocation sized by an unchecked count, and never a silent
// truncation of an out-of-range coordinate:
//
//  1. occupancy tag 0 (the retired hash-only sparse regime) is rejected by
//     both readParticleSystem and AmoebotSystem::restoreState;
//  2. particle and tile counts larger than the payload can hold are
//     rejected before anything is reserved;
//  3. i64 coordinates outside int32 are rejected;
//  4. a flat window whose side or origin would wrap the window arithmetic
//     is rejected instead of writing past the occupancy words;
//  5. a chain snapshot with more particles than the restoring engine or
//     sharded runner was built for is rejected before any per-particle
//     state is written;
//  6. a particle list that repeats a cell is rejected by the occupancy
//     grid, for both the chain and the amoebot system.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "rng/random.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"

namespace sops {
namespace {

using amoebot::AmoebotSystem;
using system::ParticleSystem;
using system::SnapshotReader;
using system::SnapshotWriter;

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 62;

/// Runs `read` and expects a ContractViolation whose message names
/// `fragment`.
template <typename Read>
void expectNamedViolation(Read&& read, const std::string& fragment) {
  try {
    read();
    ADD_FAILURE() << "expected a ContractViolation naming '" << fragment
                  << "'";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << error.what();
  }
}

ParticleSystem readSystem(const std::vector<std::uint8_t>& payload) {
  SnapshotReader r(payload);
  ParticleSystem sys = system::readParticleSystem(r);
  r.finish();
  return sys;
}

/// A flat ParticleSystem payload with its occupancy tag replaced.
std::vector<std::uint8_t> particleSystemWithTag(std::uint8_t tag) {
  const ParticleSystem sys = system::lineConfiguration(6);
  SnapshotWriter w;
  w.u64(sys.size());
  for (const lattice::TriPoint p : sys.positions()) {
    w.i64(p.x);
    w.i64(p.y);
  }
  w.u8(tag);
  w.i64(sys.grid().originX());
  w.i64(sys.grid().originY());
  w.u64(sys.grid().width());
  w.u64(sys.grid().height());
  return w.payload();
}

/// An AmoebotSystem payload cut just before its occupancy tag, so a test
/// can append whatever occupancy record it needs.
std::vector<std::uint8_t> amoebotParticlesOnly(const AmoebotSystem& sys) {
  SnapshotWriter w;
  sys.saveState(w);
  std::vector<std::uint8_t> payload = w.payload();
  // u64 count, then 4 × i64 + 3 × u8 per particle.
  payload.resize(8 + sys.size() * (4 * 8 + 3));
  return payload;
}

void append(std::vector<std::uint8_t>& payload, const SnapshotWriter& tail) {
  payload.insert(payload.end(), tail.payload().begin(), tail.payload().end());
}

TEST(SnapshotInput, FlatTagStillRoundTrips) {
  // Control for the crafted payloads below: tag 1 is today's flat layout.
  const ParticleSystem restored = readSystem(particleSystemWithTag(1));
  EXPECT_TRUE(restored.sameArrangement(system::lineConfiguration(6)));
  EXPECT_STREQ(restored.regimeName(), "dense-flat");
}

TEST(SnapshotInput, ParticleSystemRejectsOccupancyTagZero) {
  const std::vector<std::uint8_t> payload = particleSystemWithTag(0);
  expectNamedViolation([&] { (void)readSystem(payload); },
                       "occupancy tag 0");
}

TEST(SnapshotInput, AmoebotRejectsOccupancyTagZero) {
  rng::Random ctor(5);
  AmoebotSystem sys(system::lineConfiguration(6), ctor);
  std::vector<std::uint8_t> payload = amoebotParticlesOnly(sys);
  SnapshotWriter tail;
  tail.u8(0);
  tail.i64(0);
  tail.i64(0);
  tail.u64(64);
  tail.u64(64);
  append(payload, tail);
  SnapshotReader r(payload);
  expectNamedViolation([&] { sys.restoreState(r); }, "occupancy tag 0");
}

TEST(SnapshotInput, OversizedParticleCountIsANamedError) {
  SnapshotWriter w;
  w.u64(kHugeCount);
  w.i64(0);
  w.i64(0);
  expectNamedViolation([&] { (void)readSystem(w.payload()); },
                       "particle count");
}

TEST(SnapshotInput, OversizedTileCountIsANamedError) {
  SnapshotWriter w;
  w.u64(1);
  w.i64(0);
  w.i64(0);
  w.u8(2);
  w.u64(kHugeCount);
  expectNamedViolation([&] { (void)readSystem(w.payload()); }, "tile count");
}

TEST(SnapshotInput, OversizedAmoebotTileCountIsANamedError) {
  rng::Random ctor(5);
  AmoebotSystem sys(system::lineConfiguration(6), ctor);
  std::vector<std::uint8_t> payload = amoebotParticlesOnly(sys);
  SnapshotWriter tail;
  tail.u8(2);
  tail.u64(kHugeCount);
  append(payload, tail);
  SnapshotReader r(payload);
  expectNamedViolation([&] { sys.restoreState(r); }, "tile count");
}

TEST(SnapshotInput, CoordinateOutsideInt32IsANamedError) {
  SnapshotWriter w;
  w.u64(1);
  w.i64(std::int64_t{1} << 40);
  w.i64(0);
  w.u8(1);
  w.i64(0);
  w.i64(0);
  w.u64(64);
  w.u64(64);
  expectNamedViolation([&] { (void)readSystem(w.payload()); }, "particle x");
}

TEST(SnapshotInput, WrappingWindowGeometryIsANamedError) {
  // A side of 2^64 − 1 once rounded to a zero-word stride that passed the
  // cap check, and an origin near INT64_MIN overflows p.x − originX.
  const auto flatPayload = [](std::int64_t originX, std::uint64_t width) {
    SnapshotWriter w;
    w.u64(1);
    w.i64(0);
    w.i64(0);
    w.u8(1);
    w.i64(originX);
    w.i64(-32);
    w.u64(width);
    w.u64(64);
    return w.payload();
  };
  expectNamedViolation(
      [&] { (void)readSystem(flatPayload(-32, ~std::uint64_t{0})); },
      "exceeds the dense cap");
  expectNamedViolation(
      [&] {
        (void)readSystem(flatPayload(
            std::numeric_limits<std::int64_t>::min() + 8, 64));
      },
      "origin out of range");
  // Control: the same payload with a sane window restores.
  EXPECT_TRUE(readSystem(flatPayload(-32, 64)).occupied({0, 0}));
}

TEST(SnapshotInput, RepeatedParticlePositionIsANamedError) {
  SnapshotWriter w;
  w.u64(3);
  for (const lattice::TriPoint p :
       {lattice::TriPoint{0, 0}, lattice::TriPoint{1, 0},
        lattice::TriPoint{0, 0}}) {
    w.i64(p.x);
    w.i64(p.y);
  }
  w.u8(1);
  w.i64(-32);
  w.i64(-32);
  w.u64(64);
  w.u64(64);
  expectNamedViolation([&] { (void)readSystem(w.payload()); },
                       "duplicate particle position");
}

TEST(SnapshotInput, AmoebotOverlappingCellsAreANamedError) {
  rng::Random ctor(5);
  AmoebotSystem sys(system::lineConfiguration(2), ctor);
  SnapshotWriter w;
  w.u64(2);
  for (int particle = 0; particle < 2; ++particle) {
    for (int coord = 0; coord < 4; ++coord) w.i64(0);  // tail = head = 0,0
    w.u8(0);  // contracted, no flags
    w.u8(0);
    w.u8(0);
  }
  w.u8(1);
  w.i64(-32);
  w.i64(-32);
  w.u64(64);
  w.u64(64);
  SnapshotReader r(w.payload());
  expectNamedViolation([&] { sys.restoreState(r); },
                       "duplicate particle position");
}

TEST(SnapshotInput, AmoebotCoordinateOutsideInt32IsANamedError) {
  rng::Random ctor(5);
  AmoebotSystem sys(system::lineConfiguration(1), ctor);
  SnapshotWriter w;
  w.u64(1);
  w.i64(0);
  w.i64(-(std::int64_t{1} << 33));
  expectNamedViolation(
      [&] {
        SnapshotReader r(w.payload());
        sys.restoreState(r);
      },
      "particle tail y");
}

TEST(SnapshotInput, ChainParticleCountMismatchIsANamedError) {
  // CompressionModel::deserialize reads nothing, so only the count checks
  // stand between a 200-particle payload and a runner whose clock and coin
  // banks hold 48 streams.
  core::ChainOptions options;
  options.lambda = 4.0;
  const core::CompressionModel model(options);
  core::ShardedChainOptions sharded;
  sharded.threads = 1;
  sharded.targetEventsPerEpoch = 4096;
  core::ShardedChainRunner<core::CompressionModel> big(
      system::lineConfiguration(200), model, 5, sharded);
  big.runAtLeast(1000);
  SnapshotWriter runnerPayload;
  big.saveState(runnerPayload);
  core::ShardedChainRunner<core::CompressionModel> small(
      system::lineConfiguration(48), model, 5, sharded);
  expectNamedViolation(
      [&] {
        SnapshotReader r(runnerPayload.payload());
        small.restoreState(r);
      },
      "stream count");

  const core::CompressionEngine bigEngine(system::lineConfiguration(200),
                                          model, 5);
  SnapshotWriter enginePayload;
  bigEngine.saveState(enginePayload);
  core::CompressionEngine smallEngine(system::lineConfiguration(48), model, 5);
  expectNamedViolation(
      [&] {
        SnapshotReader r(enginePayload.payload());
        smallEngine.restoreState(r);
      },
      "particle count");
}

}  // namespace
}  // namespace sops
