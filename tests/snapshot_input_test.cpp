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
//     grid, for both the chain and the amoebot system, and a rejected
//     amoebot restore leaves the system exactly as it was;
//  7. a sharded-runner frame older than v5 is rejected by name, while
//     sequential-engine frames of v2, v3 and v4 still load;
//  8. a frame either sharded runner or the sequential separation engine
//     rejects leaves it exactly as it was: same state, and the same
//     continuation as an untouched twin — a separation frame whose color
//     count does not match its particle count among them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
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

/// A flat-window AmoebotSystem payload of contracted, flagless particles
/// at `cells`, in the 64 × 64 window at (−32, −32).
std::vector<std::uint8_t> amoebotPayload(
    const std::vector<lattice::TriPoint>& cells) {
  SnapshotWriter w;
  w.u64(cells.size());
  for (const lattice::TriPoint cell : cells) {
    for (int end = 0; end < 2; ++end) {  // tail, then head == tail
      w.i64(cell.x);
      w.i64(cell.y);
    }
    w.u8(0);  // contracted, no flags
    w.u8(0);
    w.u8(0);
  }
  w.u8(1);
  w.i64(-32);
  w.i64(-32);
  w.u64(64);
  w.u64(64);
  return w.payload();
}

TEST(SnapshotInput, AmoebotOverlappingCellsAreANamedError) {
  rng::Random ctor(5);
  AmoebotSystem sys(system::lineConfiguration(2), ctor);
  const std::vector<std::uint8_t> payload =
      amoebotPayload({{0, 0}, {0, 0}});
  SnapshotReader r(payload);
  expectNamedViolation([&] { sys.restoreState(r); },
                       "duplicate particle position");
}

TEST(SnapshotInput, AmoebotRejectedRestoreLeavesSystemUnchanged) {
  // The occupancy plane is rebuilt before anything is replaced, so a frame
  // the rebuild rejects leaves particles and planes as they were.
  rng::Random ctor(5);
  AmoebotSystem sys(system::lineConfiguration(6), ctor);
  sys.expand(5, lattice::Direction::East);  // a head cell, too
  std::vector<amoebot::Particle> before;
  for (std::size_t id = 0; id < sys.size(); ++id) {
    before.push_back(sys.particle(id));
  }
  SnapshotWriter beforeBytes;
  sys.saveState(beforeBytes);

  // Six particles on one cell; six cells, one far outside the window.
  const std::vector<std::vector<lattice::TriPoint>> rejected = {
      std::vector<lattice::TriPoint>(6, lattice::TriPoint{0, 0}),
      {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {1000, 0}}};
  for (const std::vector<lattice::TriPoint>& cells : rejected) {
    const std::vector<std::uint8_t> payload = amoebotPayload(cells);
    SnapshotReader r(payload);
    EXPECT_THROW(sys.restoreState(r), ContractViolation);

    ASSERT_EQ(sys.size(), before.size());
    for (std::size_t id = 0; id < before.size(); ++id) {
      const amoebot::Particle& p = sys.particle(id);
      EXPECT_EQ(p.tail, before[id].tail) << id;
      EXPECT_EQ(p.head, before[id].head) << id;
      EXPECT_EQ(p.expanded, before[id].expanded) << id;
      EXPECT_EQ(p.flag, before[id].flag) << id;
      EXPECT_EQ(p.orientationOffset, before[id].orientationOffset) << id;
      EXPECT_EQ(p.mirrored, before[id].mirrored) << id;
      EXPECT_EQ(p.crashed, before[id].crashed) << id;
      EXPECT_EQ(p.byzantine, before[id].byzantine) << id;
      EXPECT_EQ(p.expandDir, before[id].expandDir) << id;
      EXPECT_TRUE(sys.occupied(p.tail)) << id;
      EXPECT_TRUE(sys.occupied(p.head)) << id;
    }
    for (const lattice::TriPoint cell : cells) {
      const bool ownCell = std::any_of(
          before.begin(), before.end(), [&](const amoebot::Particle& p) {
            return p.tail == cell || p.head == cell;
          });
      EXPECT_EQ(sys.occupied(cell), ownCell) << cell.x << "," << cell.y;
    }
    SnapshotWriter afterBytes;
    sys.saveState(afterBytes);
    EXPECT_EQ(afterBytes.payload(), beforeBytes.payload());
  }
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
  // stand between a 200-particle payload and a runner whose epoch executor
  // buckets 48 particles.
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
      "particle count");

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

TEST(SnapshotInput, ShardedFrameBeforeV5IsANamedError) {
  // v4 replaced the sharded runners' per-particle streams with per-epoch
  // state, and v5 dropped the chain runner's partner-id plane record, so
  // an older sharded frame cannot be read as today's layout.
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = 1;
  core::ShardedChainRunner<core::CompressionModel> chain(
      system::lineConfiguration(48), core::CompressionModel(options), 5,
      sharded);
  chain.runAtLeast(1000);
  SnapshotWriter chainPayload;
  chain.saveState(chainPayload);

  core::SeparationModel::Options separationOptions;
  separationOptions.lambda = 4.0;
  separationOptions.gamma = 4.0;
  core::ShardedChainRunner<core::SeparationModel> separation(
      system::lineConfiguration(48),
      core::SeparationModel(separationOptions,
                            system::alternatingClasses(48, 2)),
      5, sharded);
  separation.runAtLeast(1000);
  SnapshotWriter separationPayload;
  separation.saveState(separationPayload);

  rng::Random ctor(5);
  AmoebotSystem sys(system::lineConfiguration(48), ctor);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::ShardedPoissonRunner amoebotRunner(sys, algo, 5, sharded);
  amoebotRunner.runAtLeast(1000);
  SnapshotWriter amoebotPayload;
  amoebotRunner.saveState(amoebotPayload);

  for (const std::uint32_t version : {2u, 3u, 4u}) {
    const std::string named =
        "frame v" + std::to_string(version) + " predates v" +
        std::to_string(system::kMinShardedSnapshotVersion);
    expectNamedViolation(
        [&] {
          SnapshotReader r(chainPayload.payload(), version);
          chain.restoreState(r);
        },
        named);
    expectNamedViolation(
        [&] {
          SnapshotReader r(separationPayload.payload(), version);
          separation.restoreState(r);
        },
        named);
    expectNamedViolation(
        [&] {
          SnapshotReader r(amoebotPayload.payload(), version);
          amoebotRunner.restoreState(r);
        },
        named);
  }
  // Control: the same payloads restore under the current version.
  SnapshotReader chainReader(chainPayload.payload());
  chain.restoreState(chainReader);
  chainReader.finish();
  SnapshotReader separationReader(separationPayload.payload());
  separation.restoreState(separationReader);
  separationReader.finish();
  SnapshotReader amoebotReader(amoebotPayload.payload());
  amoebotRunner.restoreState(amoebotReader);
  amoebotReader.finish();
}

/// `frame` with its last `bytes` bytes cut off.
std::vector<std::uint8_t> truncated(const SnapshotWriter& frame,
                                    std::size_t bytes) {
  std::vector<std::uint8_t> payload = frame.payload();
  payload.resize(payload.size() - bytes);
  return payload;
}

/// `frame`, a separation frame of `sys`, with its color record one color
/// short of the particle count.
std::vector<std::uint8_t> colorCountOneShort(const SnapshotWriter& frame,
                                             const ParticleSystem& sys) {
  SnapshotWriter w;
  system::writeParticleSystem(w, sys);
  const std::size_t colorsAt = w.payload().size();
  w.bytes(std::vector<std::uint8_t>(sys.size() - 1, 0));
  std::vector<std::uint8_t> payload = w.payload();
  const std::vector<std::uint8_t>& whole = frame.payload();
  const std::size_t colorsEnd = colorsAt + 8 + sys.size();
  payload.insert(payload.end(),
                 whole.begin() + static_cast<std::ptrdiff_t>(colorsEnd),
                 whole.end());
  return payload;
}

constexpr const char* kColorCountMismatch =
    "snapshot: color count does not match the particle count";

/// Restores each rejected frame into `runner`, which must throw and keep
/// its state, then checks that `runner` continues exactly like `twin`, a
/// runner built and run the same way that never saw a rejected frame.
template <typename Model>
void expectRejectedFramesLeaveRunnerUnchanged(
    core::ShardedChainRunner<Model>& runner,
    core::ShardedChainRunner<Model>& twin,
    const std::vector<std::vector<std::uint8_t>>& rejected) {
  SnapshotWriter before;
  runner.saveState(before);
  for (std::size_t k = 0; k < rejected.size(); ++k) {
    SnapshotReader r(rejected[k]);
    EXPECT_THROW(runner.restoreState(r), ContractViolation) << "frame " << k;
    EXPECT_EQ(runner.system().size(), twin.system().size()) << "frame " << k;
    EXPECT_EQ(runner.system().positions(), twin.system().positions())
        << "frame " << k;
    EXPECT_EQ(runner.edges(), twin.edges()) << "frame " << k;
    EXPECT_EQ(runner.stats().steps, twin.stats().steps) << "frame " << k;
    EXPECT_EQ(runner.sweepEvents(), twin.sweepEvents()) << "frame " << k;
    EXPECT_EQ(runner.now(), twin.now()) << "frame " << k;
    SnapshotWriter after;
    runner.saveState(after);
    EXPECT_EQ(after.payload(), before.payload()) << "frame " << k;
  }
  runner.runAtLeast(3000);
  twin.runAtLeast(3000);
  SnapshotWriter ran;
  runner.saveState(ran);
  SnapshotWriter twinRan;
  twin.saveState(twinRan);
  EXPECT_EQ(ran.payload(), twinRan.payload());
}

TEST(SnapshotInput, ChainRejectedRestoreLeavesRunnerUnchanged) {
  // Every frame below is read past the system, the model and the tallies
  // before the executor or the edge recount rejects it.
  core::ChainOptions options;
  options.lambda = 4.0;
  const core::CompressionModel model(options);
  core::ShardedChainOptions sharded;
  sharded.threads = 1;
  sharded.targetEventsPerEpoch = 4096;
  const auto make = [&](std::size_t n, const core::ShardedChainOptions& o) {
    return core::ShardedChainRunner<core::CompressionModel>(
        system::lineConfiguration(n), model, 5, o);
  };
  auto big = make(200, sharded);
  big.runAtLeast(1000);
  SnapshotWriter bigFrame;
  big.saveState(bigFrame);
  auto further = make(48, sharded);
  further.runAtLeast(6000);
  SnapshotWriter furtherFrame;
  further.saveState(furtherFrame);
  core::ShardedChainOptions otherTarget = sharded;
  otherTarget.targetEventsPerEpoch = 8192;
  auto other = make(48, otherTarget);
  other.runAtLeast(6000);
  SnapshotWriter otherFrame;
  other.saveState(otherFrame);

  auto runner = make(48, sharded);
  auto twin = make(48, sharded);
  runner.runAtLeast(1000);
  twin.runAtLeast(1000);
  expectRejectedFramesLeaveRunnerUnchanged(
      runner, twin,
      {bigFrame.payload(), truncated(furtherFrame, 8), otherFrame.payload()});

  // An adaptive runner (the default) keeps its target within
  // [max(n/2, 1024), max(16n, 1024)], which is 1024 alone at n = 48, so
  // the fixed 8192 of otherFrame is out of its range.
  core::ShardedChainOptions adaptive;
  adaptive.threads = 1;
  auto adaptiveRunner = make(48, adaptive);
  auto adaptiveTwin = make(48, adaptive);
  adaptiveRunner.runAtLeast(1000);
  adaptiveTwin.runAtLeast(1000);
  expectRejectedFramesLeaveRunnerUnchanged(adaptiveRunner, adaptiveTwin,
                                           {otherFrame.payload()});
}

TEST(SnapshotInput, SeparationRejectedRestoreLeavesRunnerUnchanged) {
  // The executor's record is read last: a frame cut inside it has already
  // handed the runner a new configuration, colors and tallies.  A color
  // record one short is rejected by name before anything is committed.
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = 1;
  sharded.targetEventsPerEpoch = 4096;
  const auto make = [&] {
    return core::ShardedChainRunner<core::SeparationModel>(
        system::lineConfiguration(48),
        core::SeparationModel(options, system::alternatingClasses(48, 2)), 5,
        sharded);
  };
  auto further = make();
  further.runAtLeast(6000);
  SnapshotWriter furtherFrame;
  further.saveState(furtherFrame);

  const std::vector<std::uint8_t> oneShort =
      colorCountOneShort(furtherFrame, further.system());

  auto runner = make();
  auto twin = make();
  runner.runAtLeast(1000);
  twin.runAtLeast(1000);
  expectNamedViolation(
      [&] {
        SnapshotReader r(oneShort);
        runner.restoreState(r);
      },
      kColorCountMismatch);
  expectRejectedFramesLeaveRunnerUnchanged(
      runner, twin,
      {truncated(furtherFrame, 1), truncated(furtherFrame, 9), oneShort});
  EXPECT_EQ(runner.model().colors(runner.system()),
            twin.model().colors(twin.system()));
}

TEST(SnapshotInput, SeparationEngineRejectedRestoreLeavesEngineUnchanged) {
  // The sequential engine reads and checks its whole frame before it
  // commits, like the sharded runners.
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  const auto make = [&] {
    return core::SeparationEngine(
        system::lineConfiguration(48),
        core::SeparationModel(options, system::alternatingClasses(48, 2)), 5);
  };
  auto further = make();
  further.run(6000);
  SnapshotWriter furtherFrame;
  further.saveState(furtherFrame);
  const std::vector<std::uint8_t> oneShort =
      colorCountOneShort(furtherFrame, further.system());

  auto engine = make();
  auto twin = make();
  engine.run(1000);
  twin.run(1000);
  expectNamedViolation(
      [&] {
        SnapshotReader r(oneShort);
        engine.restoreState(r);
      },
      kColorCountMismatch);
  SnapshotWriter before;
  engine.saveState(before);
  for (const std::vector<std::uint8_t>& rejected :
       {oneShort, truncated(furtherFrame, 1), truncated(furtherFrame, 9)}) {
    SnapshotReader r(rejected);
    EXPECT_THROW(engine.restoreState(r), ContractViolation);
    SnapshotWriter after;
    engine.saveState(after);
    EXPECT_EQ(after.payload(), before.payload());
  }
  engine.run(3000);
  twin.run(3000);
  SnapshotWriter ran;
  engine.saveState(ran);
  SnapshotWriter twinRan;
  twin.saveState(twinRan);
  EXPECT_EQ(ran.payload(), twinRan.payload());
}

TEST(SnapshotInput, AmoebotRunnerRejectedRestoreLeavesRunnerUnchanged) {
  // The runner's frame is its clock and activation count, then the
  // executor's state: a cut or mismatched executor record must not leave
  // the activation count behind.
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  core::ShardedChainOptions sharded;
  sharded.threads = 1;
  sharded.targetEventsPerEpoch = 4096;
  const auto frameAfter = [&](std::uint64_t activations,
                              const core::ShardedChainOptions& o) {
    rng::Random ctor(5);
    AmoebotSystem sys(system::lineConfiguration(48), ctor);
    amoebot::ShardedPoissonRunner runner(sys, algo, 5, o);
    runner.runAtLeast(activations);
    SnapshotWriter w;
    runner.saveState(w);
    return w;
  };
  core::ShardedChainOptions otherTarget = sharded;
  otherTarget.targetEventsPerEpoch = 8192;
  const std::vector<std::uint8_t> otherFrame =
      frameAfter(6000, otherTarget).payload();

  const auto expectRejected =
      [&](const core::ShardedChainOptions& o,
          const std::vector<std::vector<std::uint8_t>>& rejected) {
        rng::Random ctorA(5);
        AmoebotSystem sysA(system::lineConfiguration(48), ctorA);
        amoebot::ShardedPoissonRunner runner(sysA, algo, 5, o);
        rng::Random ctorB(5);
        AmoebotSystem sysB(system::lineConfiguration(48), ctorB);
        amoebot::ShardedPoissonRunner twin(sysB, algo, 5, o);
        runner.runAtLeast(1000);
        twin.runAtLeast(1000);
        for (std::size_t k = 0; k < rejected.size(); ++k) {
          SnapshotReader r(rejected[k]);
          EXPECT_THROW(runner.restoreState(r), ContractViolation)
              << "frame " << k;
          EXPECT_EQ(runner.activations(), twin.activations()) << "frame " << k;
          EXPECT_EQ(runner.sweepActivations(), twin.sweepActivations())
              << "frame " << k;
          EXPECT_EQ(runner.now(), twin.now()) << "frame " << k;
          EXPECT_EQ(runner.epochTarget(), twin.epochTarget())
              << "frame " << k;
        }
        runner.runAtLeast(3000);
        twin.runAtLeast(3000);
        SnapshotWriter ran;
        runner.saveState(ran);
        sysA.saveState(ran);
        SnapshotWriter twinRan;
        twin.saveState(twinRan);
        sysB.saveState(twinRan);
        EXPECT_EQ(ran.payload(), twinRan.payload());
      };
  expectRejected(
      sharded, {truncated(frameAfter(6000, sharded), 8), otherFrame});
  // An adaptive runner (the default) holds its target at 1024 at n = 48,
  // so the fixed 8192 is out of its range.
  core::ShardedChainOptions adaptive;
  adaptive.threads = 1;
  expectRejected(adaptive, {otherFrame});
}

/// Saves `original` after 5000 steps, resumes that frame under each of
/// `versions`, and checks every resumed engine continues exactly like
/// `original` over the next 5000.
template <typename Engine, typename Make>
void expectOlderEngineFramesResume(
    Make&& make, std::initializer_list<std::uint32_t> versions) {
  Engine original = make();
  original.run(5000);
  SnapshotWriter payload;
  original.saveState(payload);
  original.run(5000);
  SnapshotWriter expected;
  original.saveState(expected);

  for (const std::uint32_t version : versions) {
    Engine resumed = make();
    SnapshotReader r(payload.payload(), version);
    resumed.restoreState(r);
    r.finish();
    resumed.run(5000);
    SnapshotWriter actual;
    resumed.saveState(actual);
    EXPECT_EQ(actual.payload(), expected.payload()) << "v" << version;
  }
}

TEST(SnapshotInput, SequentialEngineFramesV2AndV3StillLoad) {
  // The sequential engine's byte layout did not change in v4 or v5 (it
  // never wrote a partner-id plane), so its older frames resume the same
  // trajectory — a v4 separation-engine frame among them.
  core::ChainOptions options;
  options.lambda = 4.0;
  const core::CompressionModel model(options);
  expectOlderEngineFramesResume<core::CompressionEngine>(
      [&] {
        return core::CompressionEngine(system::lineConfiguration(48), model,
                                       5);
      },
      {2u, 3u, 4u});
  core::SeparationModel::Options separationOptions;
  separationOptions.lambda = 4.0;
  separationOptions.gamma = 4.0;
  expectOlderEngineFramesResume<core::SeparationEngine>(
      [&] {
        return core::SeparationEngine(
            system::lineConfiguration(48),
            core::SeparationModel(separationOptions,
                                  system::alternatingClasses(48, 2)),
            5);
      },
      {4u});
}

}  // namespace
}  // namespace sops
