#include "sim/run_spec.hpp"

#include <limits>

#include "rng/random.hpp"
#include "sim/registry.hpp"
#include "system/shapes.hpp"
#include "util/assert.hpp"

namespace sops::sim {

const ParamSchema& runSpecSchema() {
  static const ParamSchema schema = [] {
    ParamSchema s;
    s.add("scenario", ParamType::String, "", "registered scenario name");
    s.add("shape", ParamType::String, "line",
          "initial configuration: line | spiral | ring | random");
    s.add("n", ParamType::Int, "100", "particles (shape=ring: ring radius)");
    s.add("steps", ParamType::Int, "1000000",
          "chain iterations / amoebot activations per replica");
    s.add("checkpoint", ParamType::Int, "0",
          "sampling period; 0 samples only at the end");
    s.add("seed", ParamType::Int, "1603", "master seed");
    s.add("replicas", ParamType::Int, "1", "independent replicas");
    s.add("seed-stride", ParamType::Int, "7",
          "seed of replica r = seed + r*stride");
    s.add("threads", ParamType::Int, "0",
          "worker threads (max 1024); 0 = all cores (chain scenarios: "
          "0/1 = sequential engine, >1 = sharded multi-core runner)");
    s.add("csv", ParamType::String, "", "CSV sample sink path");
    s.add("jsonl", ParamType::String, "", "JSONL sample/summary sink path");
    s.add("svg", ParamType::String, "",
          "final-configuration SVG path (replica 0)");
    s.add("snapshots", ParamType::Bool, "false",
          "stream ASCII snapshots at checkpoints");
    s.add("snapshot-file", ParamType::String, "",
          "binary snapshot path, written atomically at every checkpoint "
          "and on cancellation (replicas=1 only)");
    s.add("resume", ParamType::String, "",
          "snapshot path to resume from (replicas=1 only)");
    s.add("deadline-ms", ParamType::Int, "0",
          "wall-clock budget in milliseconds; 0 = none (the run cancels "
          "cooperatively at the deadline)");
    return s;
  }();
  return schema;
}

RunSpec RunSpec::fromParams(const ParamMap& map) {
  RunSpec spec;
  const ParamSchema& reserved = runSpecSchema();
  for (const auto& [key, value] : map.entries()) {
    if (reserved.find(key) == nullptr) {
      spec.params.set(key, value);  // scenario parameter; validated later
    }
  }
  // Reserved keys parse strictly even when the scenario is unknown.
  ParamMap reservedOnly;
  for (const auto& [key, value] : map.entries()) {
    if (reserved.find(key) != nullptr) reservedOnly.set(key, value);
  }
  reservedOnly.validateAgainst(reserved, "run-spec");

  spec.scenario = reservedOnly.getString("scenario", "");
  SOPS_REQUIRE(!spec.scenario.empty(), "run spec needs scenario=<name>");
  spec.shape = reservedOnly.getString("shape", spec.shape);
  spec.n = reservedOnly.getInt("n", spec.n);
  SOPS_REQUIRE(spec.n > 0, "n must be positive");
  const std::int64_t steps =
      reservedOnly.getInt("steps", static_cast<std::int64_t>(spec.steps));
  SOPS_REQUIRE(steps >= 0, "steps must be non-negative");
  spec.steps = static_cast<std::uint64_t>(steps);
  const std::int64_t checkpoint = reservedOnly.getInt("checkpoint", 0);
  SOPS_REQUIRE(checkpoint >= 0, "checkpoint must be non-negative");
  spec.checkpointEvery = static_cast<std::uint64_t>(checkpoint);
  // seed and seed-stride are stored unsigned but parsed as signed ints: a
  // negative value would wrap to a huge u64 that toText() then writes and
  // parse() rejects, so the spec would no longer round-trip.
  const std::int64_t seed =
      reservedOnly.getInt("seed", static_cast<std::int64_t>(spec.seed));
  SOPS_REQUIRE(seed >= 0, "seed must be non-negative");
  spec.seed = static_cast<std::uint64_t>(seed);
  const std::int64_t replicas = reservedOnly.getInt("replicas", 1);
  SOPS_REQUIRE(replicas > 0 &&
                   replicas <= std::numeric_limits<std::uint32_t>::max(),
               "replicas must be in [1, 2^32)");
  spec.replicas = static_cast<std::uint32_t>(replicas);
  const std::int64_t seedStride = reservedOnly.getInt(
      "seed-stride", static_cast<std::int64_t>(spec.seedStride));
  SOPS_REQUIRE(seedStride >= 0, "seed-stride must be non-negative");
  spec.seedStride = static_cast<std::uint64_t>(seedStride);
  const std::int64_t threads = reservedOnly.getInt("threads", 0);
  // A negative count is a sign error and a five-digit one is a typo'd
  // seed or step count landing in the wrong key — both would silently
  // oversubscribe the pool (threads are spawned as asked, not clamped to
  // cores), so the spec rejects them up front.
  SOPS_REQUIRE(threads >= 0, "threads must be non-negative");
  SOPS_REQUIRE(threads <= 1024, "threads must be at most 1024");
  spec.threads = static_cast<unsigned>(threads);
  spec.csvPath = reservedOnly.getString("csv", "");
  spec.jsonlPath = reservedOnly.getString("jsonl", "");
  spec.svgPath = reservedOnly.getString("svg", "");
  spec.snapshots = reservedOnly.getBool("snapshots", false);
  spec.snapshotPath = reservedOnly.getString("snapshot-file", "");
  spec.resumePath = reservedOnly.getString("resume", "");
  spec.deadlineMs = reservedOnly.getInt("deadline-ms", 0);
  SOPS_REQUIRE(spec.deadlineMs >= 0, "deadline-ms must be non-negative");

  SOPS_REQUIRE(spec.shape == "line" || spec.shape == "spiral" ||
                   spec.shape == "ring" || spec.shape == "random",
               "shape must be line, spiral, ring, or random");
  return spec;
}

RunSpec RunSpec::parse(std::string_view text) {
  return fromParams(parseSpecText(text));
}

RunSpec RunSpec::parseArgv(int argc, const char* const* argv, int firstArg) {
  return fromParams(parseArgs(argc, argv, firstArg));
}

std::string RunSpec::toText() const {
  ParamMap map;
  map.set("scenario", scenario);
  map.set("shape", shape);
  map.set("n", std::to_string(n));
  map.set("steps", std::to_string(steps));
  map.set("checkpoint", std::to_string(checkpointEvery));
  map.set("seed", std::to_string(seed));
  map.set("replicas", std::to_string(replicas));
  map.set("seed-stride", std::to_string(seedStride));
  map.set("threads", std::to_string(threads));
  if (!csvPath.empty()) map.set("csv", csvPath);
  if (!jsonlPath.empty()) map.set("jsonl", jsonlPath);
  if (!svgPath.empty()) map.set("svg", svgPath);
  if (snapshots) map.set("snapshots", "true");
  if (!snapshotPath.empty()) map.set("snapshot-file", snapshotPath);
  if (!resumePath.empty()) map.set("resume", resumePath);
  if (deadlineMs != 0) map.set("deadline-ms", std::to_string(deadlineMs));
  for (const auto& [key, value] : params.entries()) map.set(key, value);
  return map.toText();
}

void RunSpec::validate() const {
  // Programmatically built specs (spec.threads = ...) skip fromParams'
  // parse-time range checks, and sim::run() trusts validate() — so the
  // same invariants are enforced here.
  SOPS_REQUIRE(n > 0, "n must be positive");
  SOPS_REQUIRE(replicas > 0, "replicas must be positive");
  SOPS_REQUIRE(threads <= 1024, "threads must be at most 1024");
  SOPS_REQUIRE(deadlineMs >= 0, "deadline-ms must be non-negative");
  // Snapshots capture ONE replica's trajectory; a multi-replica run has no
  // single resumable state, so the combination is rejected rather than
  // silently snapshotting replica 0.
  SOPS_REQUIRE(snapshotPath.empty() || replicas == 1,
               "snapshot-file requires replicas=1");
  SOPS_REQUIRE(resumePath.empty() || replicas == 1,
               "resume requires replicas=1");
  const Scenario& sc = Registry::instance().get(scenario);
  params.validateAgainst(sc.schema(), "scenario '" + scenario + "'");
}

system::ParticleSystem RunSpec::makeInitial(std::uint64_t shapeSeed) const {
  if (shape == "line") return system::lineConfiguration(n);
  if (shape == "spiral") return system::spiralConfiguration(n);
  if (shape == "ring") {
    SOPS_REQUIRE(n <= std::numeric_limits<std::int32_t>::max(),
                 "ring radius too large");
    return system::ringConfiguration(static_cast<std::int32_t>(n));
  }
  SOPS_REQUIRE(shape == "random", "unknown shape: " + shape);
  rng::Random rng(shapeSeed);
  return system::randomHoleFree(n, rng);
}

}  // namespace sops::sim
