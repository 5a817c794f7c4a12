/// \file harness.cpp
/// The benchmark harness: runs one workload spec through the public
/// sim::run facade and reports raw measurements as JSON lines on stdout.
/// perfbench/run.py builds this program, picks the workload, aggregates
/// the lines into the benchmark's metrics and prints the result.
///
///   perfbench_harness info
///       build stamp: compiler and CMAKE_BUILD_TYPE of this binary.
///   perfbench_harness measure --spec TEXT --seed N --seconds S
///                             [--stop-at-alpha]
///       one untimed "warmup" run of seed N, then untraced rounds of
///       sim::run while another round fits in S seconds (at least
///       kMinRounds), one "rep" line per run with its timings, final
///       (steps, edges, perimeter) and the output checks it failed, then an
///       "end" line with the peak RSS.  A round is one run of seed N,
///       followed by kSetupPasses "setup" lines: runs stopped at their
///       first sample.  Every run times its first sample with alpha <= kAlphaTarget;
///       --stop-at-alpha ends the run there (a sim::StopWhen), and since the
///       run length then depends on the seed, a round runs the fixed list
///       of kConvergeSeeds seeds N + r*kSeedStride, without set-up passes.
///   perfbench_harness trace --spec TEXT --seed N --trace-file PATH
///                           [--stop-at-alpha]
///       one untraced sim::run, one traced pass through the facade's
///       layers (Scenario::start, ScenarioRun::advance, sampleMetrics,
///       saveState, writeSnapshotFile, JsonlSink), a second untraced run
///       (the overhead reference), one traced pass over the engine or
///       runner built directly (where the counters live), then the
///       rng/util/core layer probes sized from that pass.
///       Writes the spans as Chrome trace-event JSON and prints one
///       "trace" line with the counters and probe samples.
///
/// Layers are timed only from outside, around their public calls.  A
/// failed check never aborts the run: it is reported by name, and run.py
/// counts it as a failed operation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "core/biased_chain_engine.hpp"
#include "core/ensemble.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "rng/random.hpp"
#include "rng/stream_bank.hpp"
#include "sim/observer.hpp"
#include "sim/registry.hpp"
#include "sim/run_spec.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "system/boundary.hpp"
#include "system/metrics.hpp"
#include "system/snapshot.hpp"
#include "util/event_sort.hpp"

namespace {

using namespace sops;
using Clock = std::chrono::steady_clock;

/// alpha = perimeter / minimum perimeter; a configuration with alpha at or
/// below this is alpha-compressed in the paper's sense (time_to_alpha_s).
constexpr double kAlphaTarget = 1.5;
constexpr int kMinRounds = 3;
/// Set-up passes after each measured run of one seed.  A set-up takes
/// 30-70 ms at n = 100000 and varies by a third from one to the next; a
/// full run gives one sample a second or two, too few for a steady median
/// of setup_s.  (A round of the --stop-at-alpha seed list already gives
/// kConvergeSeeds samples, of a set-up too short to time alone.)
constexpr int kSetupPasses = 4;
/// Seeds per round with --stop-at-alpha.  The time to alpha varies by
/// about 18% between seeds; a fixed list keeps every run, however fast,
/// averaging the same hitting times, and this many keeps the seed part of
/// the spread between runs near 4% (the mean hitting step count of 12 such
/// lists spread 0.043 at 18 seeds) while one round, about 33 s on a
/// 2.x GHz Xeon core, fits in a 40-second run.
constexpr std::uint64_t kConvergeSeeds = 20;
/// Seed distance within that list: a large prime, so the lists of runs
/// with nearby --seed values do not overlap.
constexpr std::uint64_t kSeedStride = 1000003;
/// Calls per probe.  p90 needs at least ten samples beyond it.
constexpr int kEpochProbeCalls = 100;
constexpr int kParallelForProbeCalls = 2000;

[[nodiscard]] double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- JSON output ------------------------------------------------------------

[[nodiscard]] std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One flat JSON object, built field by field.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += jsonString(key) + ":" + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) {
    return raw(key, jsonNumber(v));
  }
  JsonObject& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, jsonString(v));
  }
  JsonObject& nums(std::string_view key, const std::vector<double>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out += (i > 0 ? "," : "") + jsonNumber(vs[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& strs(std::string_view key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out += (i > 0 ? "," : "") + jsonString(vs[i]);
    }
    return raw(key, out + "]");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

 private:
  std::string body_;
};

// -- spans ------------------------------------------------------------------

/// In-memory span recorder for the traced passes: name, start, end and the
/// enclosing span, written out once at the end as Chrome trace-event JSON
/// (Perfetto and chrome://tracing open it directly).  Single-threaded:
/// spans are opened only by the harness's own thread, around the public
/// calls it makes.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer) {
      index_ = tracer_.records_.size();
      tracer_.records_.push_back(
          {name, tracer_.nowNs(), -1, tracer_.open_});
      tracer_.open_ = static_cast<std::int64_t>(index_);
    }
    ~Span() {
      Record& r = tracer_.records_[index_];
      r.endNs = tracer_.nowNs();
      tracer_.open_ = r.parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  /// Chrome "complete" events; ts/dur in microseconds, the parent span's
  /// index in args (-1 for a root) so self time can be recomputed exactly.
  void writeChromeJson(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"name\":" << jsonString(r.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << jsonNumber(static_cast<double>(r.startNs) / 1e3)
          << ",\"dur\":"
          << jsonNumber(static_cast<double>(r.endNs - r.startNs) / 1e3)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
    }
    out << "\n]}\n";
    out.flush();
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  struct Record {
    const char* name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int64_t parent;
  };

  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::int64_t open_ = -1;
};

// -- output checks ----------------------------------------------------------

/// Names of the output checks a pass failed; each one is one failed
/// operation in run.py's failed_op_frac.
struct Checks {
  std::vector<std::string> failed;

  void require(bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  }
};

/// The determinism key of a finished run, recounted from its final
/// configuration.
struct FinalState {
  std::uint64_t steps = 0;
  std::int64_t edges = 0;
  std::int64_t perimeter = 0;

  friend bool operator==(const FinalState&, const FinalState&) = default;
};

[[nodiscard]] FinalState finalStateOf(std::uint64_t steps,
                                      const system::ParticleSystem& sys) {
  return {steps, system::countEdges(sys), system::perimeter(sys)};
}

[[nodiscard]] std::optional<std::size_t> metricIndex(
    const std::vector<std::string>& names, std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return std::nullopt;
  return static_cast<std::size_t>(it - names.begin());
}

/// The checks every pass shares: particle count, connectivity, the sampled
/// e(σ) against a recount (scenarios that sample it), the sampled
/// perimeter against the boundary-walk tracer (independent of the closed
/// form the scenarios sample with), alpha >= 1, and the step
/// target (or, with stopAtAlpha, reaching alpha before the step cap).
void checkFinal(Checks& checks, const sim::RunSpec& spec,
                bool stopAtAlpha,
                const std::vector<std::string>& names,
                const std::vector<double>& finalMetrics,
                const system::ParticleSystem& sys, std::uint64_t steps) {
  checks.require(static_cast<std::int64_t>(sys.size()) == spec.n,
                 "final particle count != n");
  checks.require(system::isConnected(sys), "final configuration disconnected");
  const auto sampled = [&](std::string_view name) -> std::optional<double> {
    const auto i = metricIndex(names, name);
    if (!i || *i >= finalMetrics.size()) return std::nullopt;
    return finalMetrics[*i];
  };
  if (const auto edges = sampled("edges")) {
    checks.require(*edges == static_cast<double>(system::countEdges(sys)),
                   "recounted edges != sampled edges");
  }
  const auto perimeter = sampled("perimeter");
  checks.require(
      perimeter.has_value() &&
          *perimeter == static_cast<double>(system::perimeterTraced(sys)),
      "traced perimeter != sampled perimeter");
  const auto alpha = sampled("alpha");
  checks.require(alpha.has_value() && *alpha >= 1.0, "alpha < 1");
  if (stopAtAlpha) {
    checks.require(alpha.has_value() && *alpha <= kAlphaTarget &&
                       steps < spec.steps,
                   "alpha target not reached before the step cap");
  } else {
    checks.require(steps >= spec.steps, "fewer steps than requested");
  }
}

/// The JSONL sink wrote one sample line per checkpoint, with the
/// iterations the run sampled, in order.
void checkJsonl(Checks& checks, const std::string& path,
                const std::vector<std::uint64_t>& iterations) {
  std::ifstream in(path);
  std::vector<std::uint64_t> lines;
  std::string line;
  const std::string marker = "\"iteration\":";
  while (std::getline(in, line)) {
    if (line.rfind("{\"type\":\"sample\"", 0) != 0) continue;
    const std::size_t at = line.find(marker);
    lines.push_back(at == std::string::npos
                        ? ~std::uint64_t{0}
                        : std::stoull(line.substr(at + marker.size())));
  }
  checks.require(lines == iterations, "JSONL sample lines != checkpoints");
}

/// The last snapshot loads with loadResumableSnapshot and carries the
/// final step count (the runner's frame: compat text, replica, steps).
void checkSnapshot(Checks& checks, const std::string& path,
                   std::uint64_t steps) {
  try {
    const system::SnapshotData data = system::loadResumableSnapshot(path);
    system::SnapshotReader reader(data.payload, data.version);
    (void)reader.str();
    (void)reader.u64();
    checks.require(reader.u64() == steps, "snapshot step count != final");
  } catch (const std::exception& e) {
    checks.failed.push_back(std::string("snapshot does not load: ") +
                            e.what());
  }
}

void removeOutputs(const sim::RunSpec& spec) {
  for (const std::string& path :
       {spec.jsonlPath, spec.snapshotPath, spec.snapshotPath + ".prev",
        spec.snapshotPath + ".tmp"}) {
    if (!path.empty()) std::filesystem::remove(path);
  }
}

// -- untraced repetition ----------------------------------------------------

/// Observes one sim::run: the iteration-0 sample ends set-up, the first
/// sample at or below kAlphaTarget is the convergence time, and
/// the final configuration is kept for the checks.
class RepObserver : public sim::Observer {
 public:
  explicit RepObserver(Clock::time_point t0) : t0_(t0) {}

  void onRunBegin(const sim::RunHeader& header) override {
    names = header.metricNames;
    alphaIndex_ = metricIndex(names, "alpha");
  }
  void onSample(const sim::Sample& sample) override {
    if (iterations.empty()) setupS = secondsSince(t0_);
    iterations.push_back(sample.iteration);
    if (!alphaS && alphaIndex_ &&
        sample.values[*alphaIndex_] <= kAlphaTarget) {
      alphaS = secondsSince(t0_);
    }
  }
  void onReplicaEnd(const sim::ReplicaSummary& summary) override {
    if (summary.finalSystem != nullptr) finalSystem = *summary.finalSystem;
  }

  std::vector<std::string> names;
  std::vector<std::uint64_t> iterations;
  double setupS = 0.0;
  std::optional<double> alphaS;
  std::optional<system::ParticleSystem> finalSystem;

 private:
  Clock::time_point t0_;
  std::optional<std::size_t> alphaIndex_;
};

/// Peak resident memory of this program: VmHWM from /proc/self/status.
/// (getrusage's ru_maxrss would also count the parent's image the process
/// was forked from before exec.)
[[nodiscard]] double peakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct RepResult {
  std::uint64_t seed = 0;
  double wallS = 0.0;
  double setupS = 0.0;
  std::optional<double> alphaS;
  /// Process peak RSS when sim::run returned, before the output checks
  /// (the boundary tracer's scratch would otherwise dominate it).
  double peakMib = 0.0;
  FinalState final;
  std::uint64_t ops = 0;  ///< checkpoint intervals run
  Checks checks;
};

/// One untraced run, timed from RunSpec::parse to the return of sim::run
/// (the spec's sinks are closed by then), then checked.
RepResult measureRep(const std::string& text, std::uint64_t seed,
                     bool stopAtAlpha) {
  RepResult rep;
  rep.seed = seed;
  const std::string seeded = text + " seed=" + std::to_string(seed);
  try {
    removeOutputs(sim::RunSpec::parse(seeded));
    const Clock::time_point t0 = Clock::now();
    const sim::RunSpec spec = sim::RunSpec::parse(seeded);
    RepObserver observer(t0);
    sim::StopWhen stop;
    if (stopAtAlpha) {
      stop = [&observer](const sim::Sample&) {
        return observer.alphaS.has_value();
      };
    }
    const sim::RunReport report = sim::run(spec, observer, stop);
    rep.wallS = secondsSince(t0);
    rep.peakMib = peakRssMib();
    rep.setupS = observer.setupS;
    rep.alphaS = observer.alphaS;
    rep.ops = observer.iterations.empty() ? 0 : observer.iterations.size() - 1;

    Checks& checks = rep.checks;
    checks.require(!report.cancelled, "run cancelled");
    checks.require(observer.finalSystem.has_value(), "no final configuration");
    if (observer.finalSystem) {
      const sim::ReplicaSummary& summary = report.replicas.at(0);
      rep.final = finalStateOf(summary.steps, *observer.finalSystem);
      checkFinal(checks, spec, stopAtAlpha, report.metricNames,
                 summary.finalMetrics, *observer.finalSystem, summary.steps);
      checks.require(!observer.iterations.empty() &&
                         observer.iterations.back() == summary.steps,
                     "last sample is not at the final step");
    }
    if (!spec.jsonlPath.empty()) {
      checkJsonl(checks, spec.jsonlPath, observer.iterations);
    }
    if (!spec.snapshotPath.empty()) {
      checkSnapshot(checks, spec.snapshotPath, rep.final.steps);
    }
  } catch (const std::exception& e) {
    rep.checks.failed.push_back(std::string("exception: ") + e.what());
  }
  return rep;
}

/// One set-up pass: sim::run stopped by its StopWhen at the iteration-0
/// sample, which ends set-up.  It also times alpha when the initial
/// configuration is already alpha-compressed.
RepResult setupRep(const std::string& text, std::uint64_t seed) {
  RepResult rep;
  rep.seed = seed;
  const std::string seeded = text + " seed=" + std::to_string(seed);
  try {
    removeOutputs(sim::RunSpec::parse(seeded));
    const Clock::time_point t0 = Clock::now();
    const sim::RunSpec spec = sim::RunSpec::parse(seeded);
    RepObserver observer(t0);
    const sim::RunReport report =
        sim::run(spec, observer, [](const sim::Sample&) { return true; });
    rep.wallS = secondsSince(t0);
    rep.setupS = observer.setupS;
    rep.alphaS = observer.alphaS;
    rep.ops = 1;
    rep.checks.require(!report.cancelled &&
                           observer.iterations ==
                               std::vector<std::uint64_t>{0},
                       "set-up pass did not stop at its first sample");
  } catch (const std::exception& e) {
    rep.checks.failed.push_back(std::string("exception: ") + e.what());
  }
  return rep;
}

void printRep(const RepResult& rep, const char* pass) {
  JsonObject line;
  line.str("kind", "rep").str("pass", pass).count("seed", rep.seed);
  line.num("wall_s", rep.wallS).num("setup_s", rep.setupS);
  line.raw("time_to_alpha_s", rep.alphaS ? jsonNumber(*rep.alphaS) : "null");
  line.count("steps", rep.final.steps);
  line.raw("edges", std::to_string(rep.final.edges));
  line.raw("perimeter", std::to_string(rep.final.perimeter));
  line.count("ops", rep.ops).strs("failed", rep.checks.failed).print();
}

int measure(const std::string& text, std::uint64_t seed, double seconds,
            bool stopAtAlpha) {
  std::vector<std::uint64_t> seeds{seed};
  for (std::uint64_t r = 1; stopAtAlpha && r < kConvergeSeeds; ++r) {
    seeds.push_back(seed + kSeedStride * r);
  }
  const int minRounds = stopAtAlpha ? 1 : kMinRounds;
  const int setupPasses = stopAtAlpha ? 0 : kSetupPasses;
  const Clock::time_point start = Clock::now();
  // Determinism: every run of one seed must end on the same state.
  std::map<std::uint64_t, FinalState> firstFinal;
  const auto check = [&](RepResult& rep) {
    const auto [it, first] = firstFinal.try_emplace(rep.seed, rep.final);
    if (!first && !(rep.final == it->second)) {
      rep.checks.failed.push_back("seed " + std::to_string(rep.seed) +
                                  " ended on another state than its first run");
    }
  };
  // Warm-up: the process's first run pays one-time costs a long simulation
  // pays once (allocator growth, first page faults, cold caches) and was
  // the slowest of a run's repetitions by up to a third.  It is checked and
  // is the determinism reference of seed N, but not timed.  Its peak
  // memory is that of a fresh process that ran the workload once, as a
  // user's run does: later runs only add allocator retention and
  // fragmentation to the high-water mark.
  RepResult warmup = measureRep(text, seed, stopAtAlpha);
  const double firstRunPeakMib = warmup.peakMib;
  check(warmup);
  printRep(warmup, "warmup");
  // Nothing ran (a spec or setup error): repeating cannot help.
  bool setupFailed = warmup.ops == 0;
  int rounds = 0;
  const Clock::time_point roundsStart = Clock::now();
  // Rounds are whole: another starts only if a round of the mean length so
  // far still ends within `seconds` of the start, warm-up included.
  while (!setupFailed &&
         (rounds < minRounds ||
          secondsSince(start) + secondsSince(roundsStart) / rounds <=
              seconds)) {
    for (const std::uint64_t repSeed : seeds) {
      RepResult rep = measureRep(text, repSeed, stopAtAlpha);
      check(rep);
      printRep(rep, "measure");
      setupFailed = rep.ops == 0;
      if (setupFailed) break;
      for (int pass = 0; pass < setupPasses; ++pass) {
        printRep(setupRep(text, repSeed), "setup");
      }
    }
    ++rounds;
  }
  JsonObject().str("kind", "end").num("peak_rss_mib", firstRunPeakMib).print();
  return 0;
}

// -- traced passes ----------------------------------------------------------

/// sim::run's checkpoint loop: `checkpoint()` at iteration 0 and after
/// every advance of at most `checkpoint=` steps, until the step target or
/// until `checkpoint()` returns true.  Returns the advances made.
template <typename Advance, typename Steps, typename Checkpoint>
std::uint64_t checkpointLoop(const sim::RunSpec& spec, Advance advance,
                             Steps stepsDone, Checkpoint checkpoint) {
  const std::uint64_t chunk = spec.checkpointEvery > 0
                                  ? spec.checkpointEvery
                                  : std::max<std::uint64_t>(spec.steps, 1);
  std::uint64_t advances = 0;
  bool stopped = checkpoint();
  while (!stopped && stepsDone() < spec.steps) {
    advance(std::min(chunk, spec.steps - stepsDone()));
    ++advances;
    stopped = checkpoint();
  }
  return advances;
}

/// What the traced facade pass saw; final state and checks feed the
/// determinism comparison.
struct FacadeResult {
  double wallS = 0.0;
  FinalState final;
  std::uint64_t ops = 0;
  std::uint64_t sinkBytes = 0;
  std::uint64_t snapshotBytes = 0;
  std::uint64_t snapshotWrites = 0;
};

/// Drives the layers sim::run drives for one replica — validation and
/// sink preflight, Scenario::start, then per checkpoint
/// ScenarioRun::advance, sampleMetrics, the JSONL sink and the snapshot
/// (saveState into a SnapshotWriter, writeSnapshotFile) — in the order
/// sim::run calls them, with a span around each public call.
FacadeResult tracedFacadePass(Tracer& tracer, const std::string& text,
                              bool stopAtAlpha, Checks& checks) {
  FacadeResult result;
  const Clock::time_point t0 = Clock::now();
  // The root span ends with the run, before the output checks.
  std::optional<Tracer::Span> root;
  root.emplace(tracer, "sim.run");
  std::optional<sim::RunSpec> parsed;
  {
    const Tracer::Span span(tracer, "sim.parse");
    parsed = sim::RunSpec::parse(text);
  }
  const sim::RunSpec& spec = *parsed;
  {
    const Tracer::Span span(tracer, "sim.validate");
    spec.validate();
    if (!spec.jsonlPath.empty()) sim::preflightWritableSink(spec.jsonlPath);
    if (!spec.snapshotPath.empty()) {
      sim::preflightWritableSink(spec.snapshotPath);
    }
  }
  const sim::Scenario& scenario = sim::Registry::instance().get(spec.scenario);
  sim::RunHeader header;
  header.spec = &spec;
  header.metricNames = scenario.metricNames();
  std::unique_ptr<sim::JsonlSink> jsonl;
  if (!spec.jsonlPath.empty()) {
    jsonl = std::make_unique<sim::JsonlSink>(spec.jsonlPath);
    const Tracer::Span span(tracer, "sim.sink");
    jsonl->onRunBegin(header);
  }
  std::unique_ptr<sim::ScenarioRun> run;
  {
    const Tracer::Span span(tracer, "sim.start");
    run = scenario.start(spec, spec.replicaSeed(0), spec.threads);
  }

  const std::optional<std::size_t> alphaIndex =
      metricIndex(header.metricNames, "alpha");
  std::vector<std::uint64_t> iterations;
  std::vector<double> values;
  const auto sample = [&] {
    {
      const Tracer::Span span(tracer, "sim.sample");
      values.clear();
      run->sampleMetrics(values);
    }
    iterations.push_back(run->stepsDone());
    if (jsonl) {
      const Tracer::Span span(tracer, "sim.sink");
      jsonl->onSample(sim::Sample{0, run->stepsDone(), values});
    }
    return stopAtAlpha && alphaIndex &&
           values[*alphaIndex] <= kAlphaTarget;
  };
  const auto snapshot = [&] {
    if (spec.snapshotPath.empty()) return;
    system::SnapshotWriter writer;
    {
      const Tracer::Span span(tracer, "system.snapshot_encode");
      writer.str(spec.toText());
      writer.u64(0);
      writer.u64(run->stepsDone());
      run->saveState(writer);
    }
    {
      const Tracer::Span span(tracer, "system.snapshot_file");
      system::writeSnapshotFile(spec.snapshotPath, writer.payload());
    }
    result.snapshotBytes = std::filesystem::file_size(spec.snapshotPath);
    ++result.snapshotWrites;
  };

  result.ops = checkpointLoop(
      spec,
      [&](std::uint64_t steps) {
        const Tracer::Span span(tracer, "sim.advance");
        run->advance(steps);
      },
      [&] { return run->stepsDone(); },
      [&] {
        const bool stop = sample();
        snapshot();
        return stop;
      });

  std::vector<double> finalMetrics;
  run->sampleMetrics(finalMetrics);
  const system::ParticleSystem finalSystem = run->snapshot();
  if (jsonl) {
    const Tracer::Span span(tracer, "sim.sink");
    sim::ReplicaSummary summary;
    summary.seed = spec.seed;
    summary.steps = run->stepsDone();
    summary.finalMetrics = finalMetrics;
    summary.finalSystem = &finalSystem;
    jsonl->onReplicaEnd(summary);
    jsonl->onRunEnd();
    jsonl.reset();
  }
  result.wallS = secondsSince(t0);
  root.reset();

  result.final = finalStateOf(run->stepsDone(), finalSystem);
  checkFinal(checks, spec, stopAtAlpha, header.metricNames, finalMetrics,
             finalSystem, run->stepsDone());
  if (!spec.jsonlPath.empty()) {
    checkJsonl(checks, spec.jsonlPath, iterations);
    result.sinkBytes = std::filesystem::file_size(spec.jsonlPath);
  }
  if (!spec.snapshotPath.empty()) {
    checkSnapshot(checks, spec.snapshotPath, run->stepsDone());
  }
  return result;
}

/// Counters of the engine or runner the scenario wraps, read after the
/// direct pass.  Fields of the executor a workload does not use stay 0.
struct DirectResult {
  FinalState final;
  std::uint64_t ops = 0;
  std::string executor;  ///< "engine", "sharded" or "amoebot"
  core::EngineStats engineStats;
  std::uint64_t sweepEvents = 0;
  std::uint64_t epochTarget = 0;
  double epochLength = 0.0;
  unsigned threads = 1;
};

[[nodiscard]] core::ChainOptions chainOptionsOf(const sim::ParamMap& params) {
  core::ChainOptions options;
  options.lambda = params.getDouble("lambda", options.lambda);
  options.greedy = params.getBool("greedy", options.greedy);
  options.enforceGapCondition =
      params.getBool("gap", options.enforceGapCondition);
  options.enforceProperties =
      params.getBool("properties", options.enforceProperties);
  options.allowProperty2 = params.getBool("property2", options.allowProperty2);
  return options;
}

/// The direct pass's checkpoint loop: sim::run's cadence with each
/// advance inside a span named `span`, stopping where the facade stops
/// (`alphaNow` samples alpha the way the scenario does).
template <typename Advance, typename Steps, typename Alpha>
void directLoop(Tracer& tracer, const char* span, const sim::RunSpec& spec,
                bool stopAtAlpha, DirectResult& result,
                Advance advance, Steps stepsDone, Alpha alphaNow) {
  result.ops = checkpointLoop(
      spec,
      [&](std::uint64_t steps) {
        const Tracer::Span s(tracer, span);
        advance(steps);
      },
      stepsDone,
      [&] { return stopAtAlpha && alphaNow() <= kAlphaTarget; });
}

/// Builds the engine or runner sim::run would build for this spec — same
/// initial configuration, model options, seeds and sharding options — and
/// runs it through the same checkpoint loop, so its counters describe the
/// trajectory the facade ran.  Supports the keys the workloads use.
DirectResult tracedDirectPass(Tracer& tracer, const std::string& text,
                              bool stopAtAlpha) {
  // The root span ends with the run, before the final-state recount.
  std::optional<Tracer::Span> root;
  root.emplace(tracer, "direct.run");
  const sim::RunSpec spec = sim::RunSpec::parse(text);
  spec.validate();
  const std::uint64_t seed = spec.replicaSeed(0);
  const sim::ParamMap& params = spec.params;
  if (params.contains("rate-spread") || params.contains("crash-fraction")) {
    throw std::runtime_error(
        "the direct pass does not support rate-spread or crash-fraction");
  }
  DirectResult result;
  result.threads = spec.threads;
  const auto n = static_cast<std::int64_t>(spec.n);
  const auto alphaOf = [&](std::int64_t perimeter) {
    return static_cast<double>(perimeter) /
           static_cast<double>(system::pMin(n));
  };

  if (spec.scenario == "compression") {
    const core::CompressionModel model(chainOptionsOf(params));
    const auto compressionAlpha = [&](const auto& executor) {
      const std::int64_t holes = system::countHoles(executor.system());
      return alphaOf(system::perimeterFromCounts(n, executor.edges(), holes));
    };
    if (spec.threads <= 1) {
      core::CompressionEngine engine(spec.makeInitial(seed), model, seed);
      result.executor = "engine";
      directLoop(
          tracer, "core.engine.run", spec, stopAtAlpha, result,
          [&](std::uint64_t k) { engine.run(k); },
          [&] { return engine.stats().steps; },
          [&] { return compressionAlpha(engine); });
      result.engineStats = engine.stats();
      root.reset();
      result.final = finalStateOf(engine.stats().steps, engine.system());
      return result;
    }
    core::ShardedChainOptions options;
    options.threads = spec.threads;
    options.targetEventsPerEpoch =
        static_cast<std::uint64_t>(params.getInt("epoch-events", 0));
    options.adaptiveEpochs = params.getBool("epoch-adaptive", true);
    core::ShardedChainRunner<core::CompressionModel> runner(
        spec.makeInitial(seed), model, seed, options);
    result.executor = "sharded";
    directLoop(
        tracer, "core.sharded.runAtLeast", spec, stopAtAlpha, result,
        [&](std::uint64_t k) { runner.runAtLeast(k); },
        [&] { return runner.stats().steps; },
        [&] { return compressionAlpha(runner); });
    result.engineStats = runner.stats();
    result.sweepEvents = runner.sweepEvents();
    result.epochTarget = runner.epochTarget();
    result.epochLength = runner.epochLength();
    root.reset();
    result.final = finalStateOf(runner.stats().steps, runner.system());
    return result;
  }

  if (spec.scenario == "amoebot") {
    // The amoebot scenario's seeding: system orientations from `seed`,
    // fault draws from seed + 1 (unused here), the runner from seed + 2.
    rng::Random sysRng(seed);
    amoebot::AmoebotSystem sys(spec.makeInitial(seed), sysRng);
    const amoebot::LocalCompressionAlgorithm algo(
        {params.getDouble("lambda", 4.0)});
    amoebot::ShardedOptions options;
    options.threads = spec.threads;
    options.targetEventsPerEpoch =
        static_cast<std::uint64_t>(params.getInt("epoch-events", 0));
    options.adaptiveEpochs = params.getBool("epoch-adaptive", true);
    amoebot::ShardedPoissonRunner runner(sys, algo, seed + 2, options);
    result.executor = "amoebot";
    directLoop(
        tracer, "amoebot.runAtLeast", spec, stopAtAlpha, result,
        [&](std::uint64_t k) { runner.runAtLeast(k); },
        [&] { return runner.activations(); },
        [&] { return alphaOf(system::perimeter(sys.tailConfiguration())); });
    result.engineStats.steps = runner.activations();
    result.sweepEvents = runner.sweepActivations();
    result.epochTarget = runner.epochTarget();
    result.epochLength = runner.epochLength();
    root.reset();
    result.final = finalStateOf(runner.activations(), sys.tailConfiguration());
    return result;
  }
  throw std::runtime_error("the direct pass supports the compression and "
                           "amoebot scenarios, not " + spec.scenario);
}

// -- layer probes -----------------------------------------------------------

/// The runners' schedule entry, (time, particle) ordered.
struct ProbeEvent {
  double time;
  std::uint32_t particle;

  friend bool operator<(const ProbeEvent& a, const ProbeEvent& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.particle < b.particle;
  }
};

struct ProbeResult {
  std::vector<double> fillS;
  std::uint64_t draws = 0;
  std::vector<double> sortS;
  std::uint64_t sorted = 0;
  std::vector<double> parallelForS;
};

/// Times the epoch runners' per-epoch library calls at the workload's own
/// size: PoissonClockBank::fillEpoch for n particles over consecutive
/// epochs of the runner's final epoch length, sortEventsInWindow over the
/// events each fill produced, and an empty parallelForIndex at the
/// workload's thread count (the spawn/join every epoch pays).
ProbeResult probeEpochLayers(Tracer& tracer, std::size_t n,
                             std::uint64_t seed, double epochLength,
                             unsigned threads) {
  ProbeResult probe;
  rng::PoissonClockBank clock(seed, n, 1);
  rng::PoissonClockBank::EpochDraws draws;
  std::vector<ProbeEvent> events;
  util::EventSortScratch<ProbeEvent> scratch;
  double begin = 0.0;
  for (int call = 0; call < kEpochProbeCalls; ++call) {
    const double end = begin + epochLength;
    Clock::time_point t0 = Clock::now();
    {
      const Tracer::Span span(tracer, "rng.fillEpoch");
      clock.fillEpoch(end, draws);
    }
    probe.fillS.push_back(secondsSince(t0));
    probe.draws += draws.total();

    events.clear();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t k = draws.offsets[i]; k < draws.offsets[i + 1]; ++k) {
        events.push_back({draws.times[k], static_cast<std::uint32_t>(i)});
      }
    }
    t0 = Clock::now();
    {
      const Tracer::Span span(tracer, "util.sortEventsInWindow");
      util::sortEventsInWindow(events, scratch, begin, end,
                               [](const ProbeEvent& e) { return e.time; });
    }
    probe.sortS.push_back(secondsSince(t0));
    probe.sorted += events.size();
    if (!std::is_sorted(events.begin(), events.end())) {
      throw std::runtime_error("sortEventsInWindow probe left events unsorted");
    }
    begin = end;
  }
  for (int call = 0; call < kParallelForProbeCalls; ++call) {
    const Clock::time_point t0 = Clock::now();
    core::parallelForIndex(threads, threads, [](std::size_t) {});
    probe.parallelForS.push_back(secondsSince(t0));
  }
  return probe;
}

void printFinal(JsonObject& line, const char* key, const FinalState& f) {
  line.raw(key, "[" + std::to_string(f.steps) + "," +
                    std::to_string(f.edges) + "," +
                    std::to_string(f.perimeter) + "]");
}

int trace(const std::string& text, std::uint64_t seed,
          bool stopAtAlpha,
          const std::string& traceFile) {
  const std::string seeded = text + " seed=" + std::to_string(seed);
  // The first untraced run warms the process up and is the determinism
  // reference; the overhead compares the traced pass with the second.
  const RepResult untraced = measureRep(text, seed, stopAtAlpha);
  printRep(untraced, "untraced");

  Tracer tracer;
  Checks checks;
  FacadeResult facade;
  DirectResult direct;
  std::optional<ProbeResult> probe;
  std::uint64_t ops = 0;
  double untracedWallS = untraced.wallS;
  try {
    removeOutputs(sim::RunSpec::parse(seeded));
    facade = tracedFacadePass(tracer, seeded, stopAtAlpha, checks);
    ops += facade.ops;
    RepResult again = measureRep(text, seed, stopAtAlpha);
    if (!(again.final == untraced.final)) {
      again.checks.failed.push_back("untraced repeat ended on another state");
    }
    printRep(again, "untraced");
    untracedWallS = again.wallS;
    direct = tracedDirectPass(tracer, seeded, stopAtAlpha);
    ops += direct.ops;
    checks.require(facade.final == untraced.final,
                   "traced facade pass ended on another state");
    checks.require(direct.final == untraced.final,
                   "direct pass ended on another state");
    if (direct.executor != "engine") {
      probe = probeEpochLayers(tracer,
                               static_cast<std::size_t>(
                                   sim::RunSpec::parse(seeded).n),
                               seed, direct.epochLength, direct.threads);
    }
    tracer.writeChromeJson(traceFile);
  } catch (const std::exception& e) {
    checks.failed.push_back(std::string("exception: ") + e.what());
  }

  JsonObject line;
  line.str("kind", "trace").str("trace_file", traceFile);
  line.num("untraced_wall_s", untracedWallS)
      .num("traced_wall_s", facade.wallS);
  printFinal(line, "untraced_final", untraced.final);
  printFinal(line, "facade_final", facade.final);
  printFinal(line, "direct_final", direct.final);
  line.count("sink_bytes", facade.sinkBytes)
      .count("snapshot_bytes", facade.snapshotBytes)
      .count("snapshot_writes", facade.snapshotWrites);
  const core::EngineStats& s = direct.engineStats;
  line.str("executor", direct.executor)
      .count("steps", s.steps)
      .count("accepted", s.movement.accepted)
      .count("target_occupied", s.movement.targetOccupied)
      .count("rejected_gap", s.movement.rejectedGap)
      .count("rejected_property", s.movement.rejectedProperty)
      .count("rejected_filter", s.movement.rejectedFilter)
      .count("sweep_events", direct.sweepEvents)
      .count("epoch_target", direct.epochTarget)
      .num("epoch_length", direct.epochLength)
      .count("threads", direct.threads);
  if (probe) {
    line.nums("fill_epoch_s", probe->fillS)
        .count("draws", probe->draws)
        .nums("sort_events_s", probe->sortS)
        .count("events_sorted", probe->sorted)
        .nums("parallel_for_s", probe->parallelForS);
  }
  line.count("ops", ops).strs("failed", checks.failed).print();
  return 0;
}

int info() {
  JsonObject()
      .str("kind", "info")
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .print();
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness info\n"
               "       perfbench_harness measure --spec TEXT --seed N "
               "--seconds S [--stop-at-alpha]\n"
               "       perfbench_harness trace --spec TEXT --seed N "
               "--trace-file PATH [--stop-at-alpha]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  std::string spec;
  std::string traceFile;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  bool stopAtAlpha = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--spec") {
      spec = value();
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--seconds") {
      seconds = std::stod(value());
    } else if (arg == "--stop-at-alpha") {
      stopAtAlpha = true;
    } else if (arg == "--trace-file") {
      traceFile = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (mode == "info") return info();
  if (spec.empty() || !seed) usage("--spec and --seed are required");
  if (mode == "measure") {
    return measure(spec, *seed, seconds, stopAtAlpha);
  }
  if (mode == "trace") {
    if (traceFile.empty()) usage("--trace-file is required");
    return trace(spec, *seed, stopAtAlpha, traceFile);
  }
  usage("unknown mode " + mode);
}
