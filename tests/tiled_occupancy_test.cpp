// The tiled occupancy layer's contract, end to end:
//
//  1. BitGrid's tiled backend answers set/test/clear/mask queries exactly
//     like the flat window — including across tile seams, where the
//     constant-stride gather gives way to the per-cell path;
//  2. the flat-window coversInteriorBy arithmetic cannot wrap on windows
//     narrower than the two interior bands (regression);
//  3. the tile and id-page directory caps fail loudly, with the cap and
//     the fix in the message (instance-overridable so the tests do not
//     allocate gigabytes);
//  4. ParticleIdPlane picks Flat below kMaxCells and Paged above (and on
//     every tiled grid), keeps ids exact across page-seam moves, and
//     reports coversNear honestly — the sharded runner's deferral signal;
//  5. the backends are trajectory-invisible: a sequential engine run is
//     bit-identical flat vs forced-tiled, and the sharded runners stay
//     thread-count invariant on organically tiled windows (the sizes that
//     used to fall off the dense path entirely);
//  6. snapshots: v2 frames still load, tiled directories round-trip
//     byte-identically, and a (crafted) v2 sharded payload without the v3
//     id-plane trailer resumes the identical trajectory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "core/biased_chain_engine.hpp"
#include "core/id_plane.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "system/bit_grid.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops {
namespace {

using core::ParticleIdPlane;
using core::SeparationModel;
using lattice::TriPoint;
using system::BitGrid;
using system::ParticleSystem;

// -- 1. tiled BitGrid vs the per-cell reference ------------------------------

TEST(TiledBitGrid, SetTestClearAcrossTileSeams) {
  BitGrid grid;
  // A cluster straddling the corner where tiles (0,0), (1,0), (0,1), (1,1)
  // meet: every set/test/clear crosses at least one seam.
  std::vector<TriPoint> points;
  for (std::int32_t x = 1022; x <= 1026; ++x) {
    for (std::int32_t y = 254; y <= 258; ++y) points.push_back({x, y});
  }
  grid.rebuildTiled(points, BitGrid::kInteriorMargin);
  EXPECT_TRUE(grid.enabled());
  EXPECT_TRUE(grid.tiled());
  for (const TriPoint p : points) EXPECT_TRUE(grid.test(p));
  EXPECT_FALSE(grid.test({1030, 256}));
  grid.clear({1024, 256});
  EXPECT_FALSE(grid.test({1024, 256}));
  grid.set({1024, 256});
  EXPECT_TRUE(grid.test({1024, 256}));
  // Cells in unallocated tiles read unoccupied; clearing one is a no-op in
  // release builds (the bit is already clear by construction).
  EXPECT_FALSE(grid.test({500000, 500000}));
}

TEST(TiledBitGrid, MasksMatchPerCellReferenceAcrossSeams) {
  BitGrid grid;
  // Deterministic ragged occupancy around the 4-tile corner (1024, 256).
  std::vector<TriPoint> points;
  for (std::int32_t x = 1016; x <= 1032; ++x) {
    for (std::int32_t y = 248; y <= 264; ++y) {
      if (((x * 7 + y * 13) % 3) == 0) points.push_back({x, y});
    }
  }
  grid.rebuildTiled(points, BitGrid::kInteriorMargin + 1);
  for (const TriPoint p : points) {
    ASSERT_TRUE(grid.coversInterior(p));
    std::uint32_t refNeighbors = 0;
    for (int idx = 0; idx < lattice::kNumDirections; ++idx) {
      const TriPoint q =
          p + lattice::offset(lattice::directionFromIndex(idx));
      if (grid.test(q)) refNeighbors |= 1u << idx;
    }
    ASSERT_EQ(grid.neighborMaskUnchecked(p),
              static_cast<std::uint8_t>(refNeighbors))
        << "at (" << p.x << "," << p.y << ")";
    for (int dir = 0; dir < lattice::kNumDirections; ++dir) {
      std::uint32_t refRing = 0;
      const auto& offsets = lattice::kEdgeRingOffsets[dir];
      for (int idx = 0; idx < lattice::kEdgeRingSize; ++idx) {
        if (grid.test(p + offsets[idx])) refRing |= 1u << idx;
      }
      ASSERT_EQ(grid.ringMaskUnchecked(p, dir),
                static_cast<std::uint8_t>(refRing))
          << "at (" << p.x << "," << p.y << ") dir " << dir;
    }
  }
}

TEST(TiledBitGrid, CoversInteriorByProbesTheTileDirectory) {
  BitGrid grid;
  grid.rebuildTiled(std::vector<TriPoint>{{5, 5}}, 2);
  // Only tile (0, 0) is allocated.
  EXPECT_TRUE(grid.coversInteriorBy({5, 5}, 2));
  EXPECT_TRUE(grid.coversInteriorBy({100, 100}, 2));
  // A box reaching into the unallocated tile (1, 0) fails.
  EXPECT_FALSE(grid.coversInteriorBy({1022, 5}, 2));
  // ...until the region is grown.
  grid.ensureRegion({1022, 5}, 2);
  EXPECT_TRUE(grid.coversInteriorBy({1022, 5}, 2));
  EXPECT_FALSE(grid.coversInteriorBy({-1, 5}, 2));  // tile (-1, 0) missing
}

// -- 2. flat coversInteriorBy wrap regression --------------------------------

TEST(BitGridRegression, TinyWindowHasNoInterior) {
  BitGrid grid;
  // A 1x1 window: 2*depth exceeds both extents, so there is no interior at
  // any depth > 0.  The unsigned subtraction used to wrap here and report
  // interior cells in a window that cannot contain any.
  ASSERT_TRUE(grid.rebuild(std::vector<TriPoint>{{0, 0}}, 0));
  ASSERT_FALSE(grid.tiled());
  EXPECT_EQ(grid.width(), 1u);
  EXPECT_TRUE(grid.coversInteriorBy({0, 0}, 0));
  EXPECT_FALSE(grid.coversInteriorBy({0, 0}, 1));
  EXPECT_FALSE(grid.coversInteriorBy({0, 0}, 2));
  // Window exactly as wide as the two depth bands: still no interior.
  BitGrid four;
  ASSERT_TRUE(four.rebuild(std::vector<TriPoint>{{0, 0}, {3, 3}}, 0));
  ASSERT_EQ(four.width(), 4u);
  EXPECT_FALSE(four.coversInteriorBy({1, 1}, 2));
  EXPECT_TRUE(four.coversInteriorBy({1, 1}, 1));
}

// -- 3. named caps -----------------------------------------------------------

TEST(TiledBitGrid, TileCapThrowsWithCapAndFixInMessage) {
  BitGrid grid;
  grid.rebuildTiled(std::vector<TriPoint>{{500, 100}}, 2);
  ASSERT_EQ(grid.tileCount(), 1u);
  grid.setMaxTilesForTest(1);
  try {
    grid.ensureRegion({500000, 500000}, 2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("tile directory reached the cap"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("1"), std::string::npos) << message;
  }
}

TEST(IdPlane, PageCapThrowsWithCapAndFixInMessage) {
  ParticleSystem sys = system::lineConfiguration(10);
  sys.forceTiledForTest();
  ParticleIdPlane plane;
  plane.setMaxPagesForTest(2);
  try {
    plane.sync(sys);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("page directory reached the cap"),
              std::string::npos)
        << message;
  }
}

// -- promotion boundary at the flat cap --------------------------------------

TEST(TiledBitGrid, RebuildPromotesOnlyPastTheFlatCap) {
  BitGrid small;
  ASSERT_TRUE(small.rebuild(std::vector<TriPoint>{{0, 0}, {8000, 8000}}, 2));
  EXPECT_FALSE(small.tiled());  // derived window fits kMaxWords
  BitGrid big;
  ASSERT_TRUE(big.rebuild(std::vector<TriPoint>{{0, 0}, {20000, 20000}}, 2));
  EXPECT_TRUE(big.tiled());
  EXPECT_TRUE(big.test({20000, 20000}));
}

TEST(TiledBitGrid, RebuildExactAcceptsTheCapAndRejectsOnePastIt) {
  // 16384x16384 cells = 256 words * 16384 rows = kMaxWords exactly.
  BitGrid atCap;
  atCap.rebuildExact(std::vector<TriPoint>{{8000, 8000}}, 0, 0, 16384, 16384);
  EXPECT_TRUE(atCap.enabled());
  EXPECT_FALSE(atCap.tiled());
  EXPECT_EQ(atCap.wordCount(), BitGrid::kMaxWords);
  // One more word column overflows the cap: exact restore refuses (the
  // tiled directory is serialized separately; see rebuildTiledExact).
  BitGrid overCap;
  EXPECT_THROW(overCap.rebuildExact(std::vector<TriPoint>{{8000, 8000}}, 0, 0,
                                    16448, 16384),
               ContractViolation);
}

// -- 4. id plane: flat/paged selection, moves, coversNear --------------------

TEST(IdPlane, FlatAtKMaxCellsPagedOnePast) {
  // Exactly kMaxCells (4096 * 4096): the flat mirror still applies.
  ParticleSystem atCap = system::lineConfiguration(10);
  atCap.restoreWindowGeometry(-2048, -2048, 4096, 4096);
  ParticleIdPlane flat;
  flat.sync(atCap);
  EXPECT_EQ(flat.mode(), ParticleIdPlane::Mode::Flat);
  EXPECT_TRUE(flat.tracksMoves(atCap.grid()));
  // One cell-row past the cap: the plane goes paged, allocating only the
  // pages around the particles instead of a >64 MiB mirror.
  ParticleSystem pastCap = system::lineConfiguration(10);
  pastCap.restoreWindowGeometry(-2050, -2050, 4100, 4100);
  ParticleIdPlane paged;
  paged.sync(pastCap);
  EXPECT_EQ(paged.mode(), ParticleIdPlane::Mode::Paged);
  EXPECT_TRUE(paged.tracksMoves(pastCap.grid()));
  EXPECT_LT(paged.pageCount() * ParticleIdPlane::kPageCells,
            std::uint64_t{4100} * 4100);
  for (std::size_t i = 0; i < pastCap.size(); ++i) {
    EXPECT_EQ(paged.idAtUnchecked(pastCap.position(i)),
              static_cast<std::uint32_t>(i));
    EXPECT_TRUE(paged.coversNear(pastCap.position(i), 1));
  }
}

TEST(IdPlane, PagedMoveAllocatesFreshPagesAndKeepsIdsExact) {
  ParticleSystem sys = system::lineConfiguration(10);
  sys.forceTiledForTest();
  ParticleIdPlane plane;
  plane.sync(sys);
  ASSERT_EQ(plane.mode(), ParticleIdPlane::Mode::Paged);
  const std::size_t before = plane.pageCount();
  // (0, 200) lies on a page the margin-4 build never touched: move() must
  // allocate around the target and keep the id readable there.
  EXPECT_FALSE(plane.coversNear({0, 200}, 1));
  plane.move({0, 0}, {0, 200}, 0);
  EXPECT_GT(plane.pageCount(), before);
  EXPECT_EQ(plane.idAtUnchecked({0, 200}), 0u);
  EXPECT_TRUE(plane.coversNear({0, 200}, 1));
  // A same-page move stays cheap and exact.
  plane.move({1, 0}, {2, 1}, 1);
  EXPECT_EQ(plane.idAtUnchecked({2, 1}), 1u);
  EXPECT_FALSE(plane.coversNear({100000, 100000}, 1));
}

// -- 5. backends are trajectory-invisible ------------------------------------

TEST(TiledTrajectory, SequentialSeparationBitIdenticalFlatVsTiled) {
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  ParticleSystem flatStart = system::lineConfiguration(40);
  ParticleSystem tiledStart = system::lineConfiguration(40);
  tiledStart.forceTiledForTest();
  ASSERT_FALSE(flatStart.grid().tiled());
  ASSERT_TRUE(tiledStart.grid().tiled());
  core::SeparationEngine flat(
      flatStart, SeparationModel(options, system::alternatingClasses(40, 2)),
      1603);
  core::SeparationEngine tiled(
      tiledStart, SeparationModel(options, system::alternatingClasses(40, 2)),
      1603);
  flat.run(100000);
  tiled.run(100000);
  EXPECT_TRUE(flat.system().sameArrangement(tiled.system()));
  EXPECT_EQ(flat.model().colors(), tiled.model().colors());
  EXPECT_EQ(flat.stats().movement.accepted, tiled.stats().movement.accepted);
  EXPECT_EQ(flat.stats().auxAccepted, tiled.stats().auxAccepted);
  EXPECT_EQ(flat.edges(), tiled.edges());
}

/// Everything two sharded runs can disagree on.
struct ShardedSignature {
  std::vector<TriPoint> positions;
  std::vector<std::uint8_t> colors;
  std::int64_t edges = 0;
  std::uint64_t steps = 0;
  std::uint64_t accepted = 0;
  std::uint64_t auxAccepted = 0;
  std::uint64_t sweepEvents = 0;

  bool operator==(const ShardedSignature& other) const {
    return positions == other.positions && colors == other.colors &&
           edges == other.edges && steps == other.steps &&
           accepted == other.accepted && auxAccepted == other.auxAccepted &&
           sweepEvents == other.sweepEvents;
  }
};

template <typename Model>
ShardedSignature signatureOf(const core::ShardedChainRunner<Model>& runner) {
  ShardedSignature sig;
  sig.positions = runner.system().positions();
  if constexpr (requires { runner.model().colors(); }) {
    sig.colors = runner.model().colors();
  }
  sig.edges = runner.edges();
  sig.steps = runner.stats().steps;
  sig.accepted = runner.stats().movement.accepted;
  sig.auxAccepted = runner.stats().auxAccepted;
  sig.sweepEvents = runner.sweepEvents();
  return sig;
}

TEST(TiledTrajectory, ShardedTiledIndependentOfThreadCount) {
  // A 20000-particle line's derived window exceeds the flat cap, so the
  // runner executes on the tiled grid with the paged id plane — the size
  // class that used to run every epoch on the sequential sweep.
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  std::vector<ShardedSignature> signatures;
  for (const unsigned threads : {1u, 2u, 7u}) {
    core::ShardedChainOptions sharded;
    sharded.threads = threads;
    core::ShardedChainRunner<SeparationModel> runner(
        system::lineConfiguration(20000),
        SeparationModel(options, system::alternatingClasses(20000, 2)), 4099,
        sharded);
    ASSERT_TRUE(runner.system().grid().tiled());
    runner.runAtLeast(60000);
    EXPECT_LT(runner.sweepEvents(), runner.stats().steps);  // striped ran
    EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
    signatures.push_back(signatureOf(runner));
    // Cross-commit golden: trajectory and snapshot byte layout.
    system::SnapshotWriter w;
    runner.saveState(w);
    EXPECT_EQ(system::snapshotChecksum(w.payload()), 0x17e137645f2df6aaull)
        << threads;
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
  }
}

TEST(TiledTrajectory, ShardedCompressionTiledIndependentOfThreadCount) {
  // Compression keeps no id plane, so on the tiled backend its stripe
  // workers call ParticleSystem::moveParticle concurrently with only the
  // stripe discipline keeping them apart.  A line at y = 0 also sits on a
  // tile-row seam for its whole length.
  core::ChainOptions options;
  options.lambda = 4.0;
  std::vector<ShardedSignature> signatures;
  for (const unsigned threads : {1u, 2u, 7u}) {
    ParticleSystem start = system::lineConfiguration(2000);
    start.forceTiledForTest();
    core::ShardedChainOptions sharded;
    sharded.threads = threads;
    core::ShardedChainRunner<core::CompressionModel> runner(
        std::move(start), core::CompressionModel(options), 4111, sharded);
    ASSERT_TRUE(runner.system().grid().tiled());
    runner.runAtLeast(60000);
    EXPECT_LT(runner.sweepEvents(), runner.stats().steps);  // striped ran
    EXPECT_EQ(runner.edges(), system::countEdges(runner.system()));
    signatures.push_back(signatureOf(runner));
    // Cross-commit golden: trajectory and snapshot byte layout.
    system::SnapshotWriter w;
    runner.saveState(w);
    EXPECT_EQ(system::snapshotChecksum(w.payload()), 0xdb700665408be1bdull)
        << threads;
  }
  for (std::size_t i = 1; i < signatures.size(); ++i) {
    EXPECT_TRUE(signatures[i] == signatures[0]) << "thread count #" << i;
  }
}

TEST(TiledTrajectory, Line300kRunsDenseTiledStriped) {
  // The headline size from the window-caps roadmap item: 300k particles in
  // a line (flat window far over the cap) must run dense-tiled and
  // striped.
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = 4;
  sharded.targetEventsPerEpoch = 20000;  // keep the smoke cheap
  core::ShardedChainRunner<SeparationModel> runner(
      system::lineConfiguration(300000),
      SeparationModel(options, system::alternatingClasses(300000, 2)), 7013,
      sharded);
  ASSERT_STREQ(runner.system().regimeName(), "dense-tiled");
  const std::uint64_t executed = runner.runAtLeast(20000);
  EXPECT_GT(executed, 0u);
  EXPECT_LT(runner.sweepEvents(), executed);
}

TEST(TiledTrajectory, AmoebotShardedTiledIndependentOfThreadCount) {
  // The 20-line + far-singleton configuration promotes the amoebot planes
  // to the tiled backend; the sharded Poisson runner must stay a pure
  // function of the seed there too.
  std::vector<TriPoint> points;
  for (std::int32_t i = 0; i < 20; ++i) points.push_back({i, 0});
  points.push_back({60000, 20000});
  const ParticleSystem start(points);
  struct Outcome {
    std::vector<TriPoint> tails;
    std::uint64_t activations = 0;
    std::uint64_t sweepActivations = 0;
    double now = 0.0;
  };
  std::vector<Outcome> outcomes;
  for (const unsigned threads : {1u, 2u, 7u}) {
    rng::Random ctor(7);
    amoebot::AmoebotSystem sys(start, ctor);
    ASSERT_TRUE(sys.occupancyGrid().tiled());
    const amoebot::LocalCompressionAlgorithm algo({4.0});
    amoebot::ShardedOptions options;
    options.threads = threads;
    amoebot::ShardedPoissonRunner runner(sys, algo, 991, options);
    runner.runAtLeast(40000);
    // Cross-commit golden: trajectory and both snapshot byte layouts.
    system::SnapshotWriter w;
    sys.saveState(w);
    runner.saveState(w);
    EXPECT_EQ(system::snapshotChecksum(w.payload()), 0x5624a3db3d1f9fd5ull)
        << threads;
    Outcome outcome;
    for (std::size_t id = 0; id < sys.size(); ++id) {
      outcome.tails.push_back(sys.particle(id).tail);
    }
    outcome.activations = runner.activations();
    outcome.sweepActivations = runner.sweepActivations();
    outcome.now = runner.now();
    outcomes.push_back(std::move(outcome));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].tails, outcomes[0].tails) << "thread count #" << i;
    EXPECT_EQ(outcomes[i].activations, outcomes[0].activations);
    EXPECT_EQ(outcomes[i].sweepActivations, outcomes[0].sweepActivations);
    EXPECT_EQ(outcomes[i].now, outcomes[0].now);
  }
}

// -- 6. snapshots ------------------------------------------------------------

std::string tempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = dir != nullptr ? dir : "/tmp";
  if (!base.empty() && base.back() != '/') base += '/';
  return base + "sops_tiled_" + name;
}

TEST(TiledSnapshot, V2FramesStillLoadAndOutOfRangeVersionsAreRejected) {
  const std::string path = tempPath("v2.snap");
  system::SnapshotWriter w;
  w.str("legacy payload");
  w.u64(7);
  system::writeSnapshotFile(path, w.payload(), 2);
  const system::SnapshotData data = system::readSnapshotFile(path);
  EXPECT_EQ(data.version, 2u);
  system::SnapshotReader r(data.payload, data.version);
  EXPECT_EQ(r.str(), "legacy payload");
  EXPECT_EQ(r.u64(), 7u);
  r.finish();
  EXPECT_THROW(system::writeSnapshotFile(path, w.payload(), 1),
               ContractViolation);
  EXPECT_THROW(
      system::writeSnapshotFile(path, w.payload(),
                                system::kSnapshotVersion + 1),
      ContractViolation);
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

TEST(TiledSnapshot, TiledParticleSystemRoundTripsByteIdentical) {
  ParticleSystem sys = system::lineConfiguration(30);
  sys.forceTiledForTest();
  ASSERT_TRUE(sys.grid().tiled());
  system::SnapshotWriter first;
  system::writeParticleSystem(first, sys);
  system::SnapshotReader r(first.payload());
  const ParticleSystem restored = system::readParticleSystem(r);
  r.finish();
  EXPECT_TRUE(restored.sameArrangement(sys));
  ASSERT_TRUE(restored.grid().tiled());
  EXPECT_EQ(restored.grid().sortedTileKeys(), sys.grid().sortedTileKeys());
  system::SnapshotWriter second;
  system::writeParticleSystem(second, restored);
  EXPECT_EQ(first.payload(), second.payload());
}

TEST(TiledSnapshot, FlatParticleSystemBytesParseUnderAV2Reader) {
  // The flat/sparse encodings are v2's exact byte layout, so today's
  // writer output for a flat system must parse under a version-2 reader.
  const ParticleSystem sys = system::lineConfiguration(25);
  ASSERT_FALSE(sys.grid().tiled());
  system::SnapshotWriter w;
  system::writeParticleSystem(w, sys);
  system::SnapshotReader r(w.payload(), 2);
  const ParticleSystem restored = system::readParticleSystem(r);
  r.finish();
  EXPECT_TRUE(restored.sameArrangement(sys));
  EXPECT_EQ(restored.grid().originX(), sys.grid().originX());
  EXPECT_EQ(restored.grid().width(), sys.grid().width());
}

TEST(TiledSnapshot, ShardedTiledSaveRestoreContinuesExactly) {
  // A tiled sharded run serializes its tile and page directories
  // verbatim (since v3); the resumed runner must continue bit-identically
  // (the deferral predicates are functions of those directories).
  SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = 2;
  const auto makeRunner = [&] {
    return core::ShardedChainRunner<SeparationModel>(
        system::lineConfiguration(20000),
        SeparationModel(options, system::alternatingClasses(20000, 2)), 5303,
        sharded);
  };
  core::ShardedChainRunner<SeparationModel> original = makeRunner();
  original.runAtLeast(30000);
  ASSERT_TRUE(original.system().grid().tiled());
  system::SnapshotWriter w;
  original.saveState(w);
  core::ShardedChainRunner<SeparationModel> resumed = makeRunner();
  system::SnapshotReader r(w.payload());
  resumed.restoreState(r);
  r.finish();
  original.runAtLeast(30000);
  resumed.runAtLeast(30000);
  EXPECT_TRUE(signatureOf(resumed) == signatureOf(original));
}

}  // namespace
}  // namespace sops
